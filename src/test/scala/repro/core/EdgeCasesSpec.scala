package repro.core

import repro.SparkSpec
import repro.baseline.{TedCompressor, TedQueryEngine}
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.RoadNetworkGen
import repro.traj.{Instance, MappedLoc, PathOps, UTraj, UncertainTrajGen}

/** Boundary conditions for the compressor, index, and query engine. */
class EdgeCasesSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val meta = DatasetMeta.of(net, 10, params)

  /** A minimal hand-built trajectory: one 3-edge path, 2 samples, 2 instances. */
  private lazy val tiny: UTraj = {
    val walk = UncertainTrajGen.randomWalk(net, new scala.util.Random(5), 3)
    val e0 = walk(0); val e1 = walk(1); val e2 = walk(2)
    val edges = Array(e0.outNo, e1.outNo, e2.outNo)
    def inst(p: Double, rd: Double) =
      Instance(p, e0.from, edges, Array(true, false, true), Array(0.25, rd))
    UTraj(77L, Array(100, 110), 10, Array(inst(0.8, 0.5), inst(0.2, 0.75)))
  }

  test("two-sample trajectories compress and round-trip") {
    val ct = Compressor.compress(meta, params, tiny).ct
    val back = Decompressor.decompress(meta, ct)
    assert(back.instances.length == 2)
    assert(back.instances(0).edges.toSeq == tiny.instances(0).edges.toSeq)
    assert(back.times.toSeq == Seq(100, 110))
  }

  test("a one-sample trajectory answers where, when and range like ground truth") {
    val e = UncertainTrajGen.randomWalk(net, new scala.util.Random(5), 1).head
    def inst(p: Double, rd: Double) = Instance(p, e.from, Array(e.outNo), Array(true), Array(rd))
    val one = UTraj(81L, Array(100), 10, Array(inst(0.6, 0.25), inst(0.4, 0.75)))
    val ct = Compressor.compress(meta, params, one).ct
    val grid = Grid.over(net, 16)
    val index = StIU.assemble(grid, params.slotSeconds, Seq(StIU.buildFor(net, grid, meta, params, one, ct)))
    val engine = new QueryEngine(net, meta, index, Map(one.id -> ct))
    val dec = Decompressor.decompress(meta, ct)
    Seq(99, 100, 101).foreach { t =>
      Seq(0.0, 0.5, 1.0).foreach { alpha =>
        assert(engine.where(one.id, t, alpha) == GroundTruth.where(net, dec, t, alpha), s"where t=$t α=$alpha")
      }
    }
    dec.instances.foreach { in =>
      val rd = in.dists(0)
      Seq(0.0, 0.5).foreach { alpha =>
        assert(engine.when(one.id, e.from, e.to, rd, alpha) == GroundTruth.when(net, dec, e.from, e.to, rd, alpha))
      }
      assert(engine.when(one.id, e.from, e.to, rd, 0.0) == Set(100.0))
    }
    val (x, y) = GroundTruth.locXY(net, MappedLoc(e, dec.instances(0).dists(0)))
    val re = Rect(x - 1, y - 1, x + 1, y + 1)
    Seq(99, 100, 101).foreach { t =>
      Seq(0.0, 0.5, 1.0).foreach { alpha =>
        assert(engine.range(re, t, alpha) == GroundTruth.range(net, Seq(dec), re, t, alpha), s"range t=$t α=$alpha")
      }
    }
    assert(engine.range(re, 100, 0.5) == Set(one.id))
  }

  test("instances with identical E but different D stay distinct after compression") {
    val ct = Compressor.compress(meta, params, tiny).ct
    val back = Decompressor.decompress(meta, ct)
    assert(back.instances(0).dists(1) != back.instances(1).dists(1))
  }

  test("a single-instance trajectory becomes its own reference") {
    val one = UTraj(78L, tiny.times, 10, Array(tiny.instances.head))
    val res = Compressor.compress(meta, params, one)
    assert(res.ct.refs.length == 1 && res.ct.nonRefs.isEmpty)
    val back = Decompressor.decompress(meta, res.ct)
    assert(back.instances.head.edges.toSeq == one.instances.head.edges.toSeq)
  }

  test("instances with different start vertices are never paired") {
    // Force two instances with distinct SVs.
    val rnd = new scala.util.Random(9)
    val w1 = UncertainTrajGen.randomWalk(net, rnd, 4)
    val rev = net.edgeBetween(w1(0).to, w1(0).from)
    assume(rev.isDefined)
    val alt = rev.get +: w1.drop(1) // start from the opposite end of edge 0? keep simple: prepend reverse
    val i1 = Instance(0.6, w1(0).from, w1.map(_.outNo), Array(true, true, true, true), Array(0.1, 0.2, 0.3, 0.4))
    val i2Path = net.outEdges(w1(0).to).filter(e => e.to != w1(0).from)
    assume(i2Path.nonEmpty)
    val _ = alt
    val p2 = i2Path.head +: net.outEdges(i2Path.head.to).take(1)
    assume(p2.length >= 2)
    val i2 = Instance(0.4, p2(0).from, p2.map(_.outNo).toArray,
      Array(true, true) ++ Array.fill(p2.length - 2)(true),
      Array.fill(p2.length + 0)(0.5).take(p2.length))
    // align sample counts: regenerate i2 with 4 samples
    val tf2 = Array.fill(p2.length)(false)
    tf2(0) = true; tf2(p2.length - 1) = true
    val extra = Array.fill(4 - tf2.count(identity))(0)
    val _ = extra
    val edges2 = scala.collection.mutable.ArrayBuffer[Int]()
    val flags2 = scala.collection.mutable.ArrayBuffer[Boolean]()
    p2.zipWithIndex.foreach { case (e, idx) =>
      edges2 += e.outNo
      flags2 += true
      if (idx == 0) { edges2 += 0; flags2 += true } // extra samples on edge 0
      if (idx == p2.length - 1) { edges2 += 0; flags2 += true }
    }
    val i2b = Instance(0.4, p2(0).from, edges2.toArray, flags2.toArray, Array(0.1, 0.2, 0.3, 0.4))
    val _ = i2
    val t = UTraj(79L, Array(0, 10, 20, 30), 10, Array(i1, i2b))
    val res = Compressor.compress(meta, params, t)
    // different SV => SF = 0 => both are references
    assert(res.ct.refs.length == 2 && res.ct.nonRefs.isEmpty)
  }

  test("query engine returns empty for a slot with no trajectories") {
    val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 10)
    val cts = trajs.map(t => t.id -> Compressor.compress(meta, params, t).ct).toMap
    val grid = Grid.over(net, 16)
    val parts = trajs.map(t => StIU.buildFor(net, grid, meta, params, t, cts(t.id)))
    val engine = new QueryEngine(net, meta, StIU.assemble(grid, params.slotSeconds, parts), cts)
    val (minX, minY, maxX, maxY) = net.boundingBox
    // A slot beyond every trajectory's span.
    assert(engine.range(Rect(minX, minY, maxX, maxY), 86399, 0.01).isEmpty ||
      trajs.exists(_.times.last / params.slotSeconds == 86399 / params.slotSeconds))
  }

  test("when on a nonexistent edge returns empty") {
    val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 3)
    val cts = trajs.map(t => t.id -> Compressor.compress(meta, params, t).ct).toMap
    val grid = Grid.over(net, 16)
    val parts = trajs.map(t => StIU.buildFor(net, grid, meta, params, t, cts(t.id)))
    val engine = new QueryEngine(net, meta, StIU.assemble(grid, params.slotSeconds, parts), cts)
    assert(engine.when(trajs.head.id, 0, 0, 0.5, 0.0).isEmpty)
    // A start vertex outside the network, as GroundTruth answers it.
    Seq(-1, net.numVertices).foreach { vs =>
      assert(engine.when(trajs.head.id, vs, 0, 0.5, 0.0).isEmpty, s"vs = $vs")
      assert(GroundTruth.when(net, trajs.head, vs, 0, 0.5, 0.0).isEmpty, s"vs = $vs")
    }
  }

  test("when with rd outside [0, 1] finds no pass on the engine, TED and ground truth") {
    // Def. 7 puts rd in [0, 1]. HZ trajectory 0 at rd −0.5 on 1427→1483 once
    // answered {50815.310} on the engine and {50815.310, 50815.322} on
    // ground truth, each extrapolating past the edge differently. The
    // engine answers such an rd without decoding any instance.
    val hzNet = RoadNetworkGen.generate(RoadNetworkGen.HZ)
    val hzParams = Params()
    val hzMeta = DatasetMeta.of(hzNet, UncertainTrajGen.HZ.defaultInterval, hzParams)
    val hzGrid = Grid.over(hzNet, hzParams.gridCells)
    val hz = UncertainTrajGen.dataset(hzNet, UncertainTrajGen.HZ, 12)
    val store = hz.map(t => t.id -> Compressor.compress(hzMeta, hzParams, t).ct).toMap
    val parts = hz.map(t => StIU.buildFor(hzNet, hzGrid, hzMeta, hzParams, t, store(t.id)))
    val engine = new QueryEngine(hzNet, hzMeta, StIU.assemble(hzGrid, hzParams.slotSeconds, parts), store)
    val tedDs = TedCompressor.compress(hzMeta, hz)
    val ted = new TedQueryEngine(hzNet, tedDs, hzGrid, hzParams.slotSeconds)
    val tedData = tedDs.trajs.map(t => t.id -> TedCompressor.decompressTraj(tedDs, t)).toMap
    var passes = 0
    hz.foreach { t =>
      val dec = Decompressor.decompress(hzMeta, store(t.id))
      PathOps.pathEdges(hzNet, dec.instances.head).distinct.foreach { e =>
        val at = s"trajectory ${t.id} on ${e.from}->${e.to}"
        Seq(-0.5, 1.5, Double.NaN).foreach { rd =>
          val decoded = engine.stats.instanceDecompressions
          assert(engine.when(t.id, e.from, e.to, rd, 0.0).isEmpty, s"$at rd $rd")
          assert(engine.stats.instanceDecompressions == decoded, s"$at rd $rd decodes instances")
          assert(ted.when(t.id, e.from, e.to, rd, 0.0).isEmpty, s"TED $at rd $rd")
          assert(GroundTruth.when(hzNet, dec, e.from, e.to, rd, 0.0).isEmpty, s"ground truth $at rd $rd")
        }
        Seq(0.0, 1.0).foreach { rd =>
          val exp = GroundTruth.when(hzNet, dec, e.from, e.to, rd, 0.0)
          assert(engine.when(t.id, e.from, e.to, rd, 0.0) == exp, s"$at rd $rd")
          assert(ted.when(t.id, e.from, e.to, rd, 0.0) == GroundTruth.when(hzNet, tedData(t.id), e.from, e.to, rd, 0.0),
            s"TED $at rd $rd")
          if (exp.nonEmpty) passes += 1
        }
      }
    }
    assert(passes > 0)
  }

  test("compressor rejects instances whose first or last edge lacks a sample") {
    val bad = Instance(1.0, tiny.instances.head.sv, tiny.instances.head.edges,
      Array(false, true, true), Array(0.25, 0.5))
    intercept[IllegalArgumentException] {
      Compressor.compress(meta, params, UTraj(80L, Array(0, 10), 10, Array(bad)))
    }
  }

  test("probabilities close to alpha behave consistently under quantization") {
    val pddp = meta.pddpP
    // alpha exactly on a code boundary: quantized prob == alpha passes >=.
    val alpha = pddp.dequantize(100)
    assert(pddp.roundTrip(alpha) == alpha)
    assert(pddp.roundTrip(alpha) >= alpha)
  }

  test("timesFrom at the last index returns the single trailing timestamp") {
    val ct = Compressor.compress(meta, params, tiny).ct
    assert(Decompressor.timesFrom(ct, 1, 110).toSeq == Seq(110))
  }

  test("empty referential representation set: references without Rrs decode fine") {
    // Two same-SV instances with FJD 0 are both promoted to references.
    val sm = Array(Array(0.0, 0.0), Array(0.0, 0.0))
    val a = RefSelect.select(sm)
    assert(a.refs.toSet == Set(0, 1) && a.rrs.values.forall(_.isEmpty))
  }

  test("grid with one cell still indexes and answers") {
    val grid1 = Grid.over(net, 1)
    val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 5)
    val cts = trajs.map(t => t.id -> Compressor.compress(meta, params, t).ct).toMap
    val parts = trajs.map(t => StIU.buildFor(net, grid1, meta, params, t, cts(t.id)))
    val engine = new QueryEngine(net, meta, StIU.assemble(grid1, params.slotSeconds, parts), cts)
    val t = trajs.head
    val dec = Decompressor.decompress(meta, cts(t.id))
    val tq = t.times(t.times.length / 2)
    val got = engine.where(t.id, tq, 0.1)
    assert(got == GroundTruth.where(net, dec, tq, 0.1))
  }
}
