package repro.traj

import repro.SparkSpec
import repro.network.RoadNetworkGen

class TrajGenSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 120)

  test("every instance path is connected and network-valid") {
    trajs.foreach { t =>
      t.instances.foreach { in =>
        // pathEdges throws if an outgoing edge number is invalid
        val es = PathOps.pathEdges(net, in)
        assert(es.nonEmpty)
        es.sliding(2).foreach {
          case Array(a, b) => assert(a.to == b.from)
          case _           => ()
        }
        assert(es.head.from == in.sv)
      }
    }
  }

  test("all instances of a trajectory share the sample count (Def. 5)") {
    trajs.foreach { t =>
      t.instances.foreach(in => assert(in.numSamples == t.numSamples))
    }
  }

  test("first and last edges carry a mapped location (§4.1)") {
    trajs.foreach { t =>
      t.instances.foreach { in =>
        assert(in.tflags.head && in.tflags.last)
      }
    }
  }

  test("instance probabilities sum to 1 and the base instance dominates") {
    trajs.foreach { t =>
      assert(math.abs(t.instances.map(_.prob).sum - 1.0) < 1e-9)
      assert(t.instances.head.prob == t.instances.map(_.prob).max)
    }
  }

  test("instances of one trajectory are pairwise distinct") {
    trajs.foreach { t =>
      val keys = t.instances.map(in =>
        (in.sv, in.edges.toSeq, in.dists.toSeq.map(d => math.round(d * 1e6)))).toSeq
      assert(keys.distinct.size == keys.size, s"traj ${t.id} has duplicate instances")
    }
  }

  test("timestamps are strictly increasing") {
    trajs.foreach { t =>
      t.times.sliding(2).foreach {
        case Array(a, b) => assert(b > a)
        case _           => ()
      }
    }
  }

  test("relative distances stay in [0, 1]") {
    trajs.foreach(t => t.instances.foreach(in => in.dists.foreach(d => assert(d >= 0 && d <= 1))))
  }

  test("0-entries in E never lead and always follow an edge") {
    trajs.foreach { t =>
      t.instances.foreach { in =>
        assert(in.edges.head != 0)
      }
    }
  }

  test("samples advance monotonically along the path") {
    trajs.take(40).foreach { t =>
      t.instances.foreach { in =>
        val offs = PathOps.resolve(net, in).offsets
        offs.sliding(2).foreach {
          case Array(a, b) => assert(b >= a - 1e-6)
          case _           => ()
        }
      }
    }
  }

  test("Table 5 shape: instance counts and path lengths near the profile means") {
    val big = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 400)
    val avgInst = big.map(_.instances.length).sum.toDouble / big.size
    val avgEdges = big.flatMap(_.instances.map(i => i.edges.count(_ != 0))).sum.toDouble /
      big.map(_.instances.length).sum
    assert(math.abs(avgInst - 3.0) < 1.2, s"avg instances $avgInst") // CD: avg 3
    assert(math.abs(avgEdges - 11.0) < 4.0, s"avg edges $avgEdges")  // CD: avg 11
  }

  test("Fig. 4a shape: most sample intervals deviate at most 1s from Ts") {
    val dk = UncertainTrajGen.dataset(RoadNetworkGen.generate(RoadNetworkGen.DK), UncertainTrajGen.DK, 150)
    def smallFrac(trajs: Seq[UTraj], ts: Int): Double = {
      val devs = trajs.flatMap(t => t.times.sliding(2).map { case Array(a, b) => (b - a) - ts; case _ => 0 })
      devs.count(d => math.abs(d) <= 1).toDouble / devs.size
    }
    val fDk = smallFrac(dk, 1)
    val fCd = smallFrac(trajs, 10)
    assert(fDk > 0.85, s"DK small-deviation fraction $fDk") // paper: 93 %
    assert(fCd > 0.5 && fCd < 0.8, s"CD small-deviation fraction $fCd") // paper: 62 %
    assert(fDk > fCd)
  }

  test("Fig. 4b shape: edit distance within a trajectory below across trajectories") {
    def edit(a: Array[Int], b: Array[Int]): Int = {
      val dp = Array.tabulate(a.length + 1, b.length + 1) { (i, j) =>
        if (i == 0) j else if (j == 0) i else 0
      }
      for (i <- 1 to a.length; j <- 1 to b.length)
        dp(i)(j) = math.min(math.min(dp(i - 1)(j) + 1, dp(i)(j - 1) + 1),
          dp(i - 1)(j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1))
      dp(a.length)(b.length)
    }
    val sample = trajs.filter(_.instances.length >= 2).take(30)
    val within = sample.flatMap { t =>
      t.instances.sliding(2).map { p => edit(p(0).edges, p(1).edges) }
    }
    val across = sample.sliding(2).collect {
      case Seq(a, b) => edit(a.instances.head.edges, b.instances.head.edges)
    }.toSeq
    assert(within.sum.toDouble / within.size < across.sum.toDouble / across.size)
    // most within-trajectory distances are small (paper: <= 5 for >= 83 %)
    assert(within.count(_ <= 5).toDouble / within.size > 0.7)
  }

  test("generation is deterministic per (profile, id)") {
    val a = UncertainTrajGen.trajectory(net, UncertainTrajGen.CD, 17L)
    val b = UncertainTrajGen.trajectory(net, UncertainTrajGen.CD, 17L)
    assert(a.times.toSeq == b.times.toSeq)
    assert(a.instances.map(_.edges.toSeq).toSeq == b.instances.map(_.edges.toSeq).toSeq)
  }

  test("mapped locations resolve for every instance") {
    trajs.take(40).foreach { t =>
      t.instances.foreach { in =>
        val path = PathOps.resolve(net, in)
        assert(path.sampleEdge.length == in.numSamples)
        assert(path.sampleEdge.forall(o => o >= 0 && o < path.edges.length))
      }
    }
  }
}
