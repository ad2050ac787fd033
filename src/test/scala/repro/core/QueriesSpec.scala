package repro.core

import repro.SparkSpec
import repro.baseline.{TedCompressor, TedQueryEngine}
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UTraj, UncertainTrajGen}
import scala.util.Random

/** The compressed-side query processor must agree with the brute-force
  * evaluator over the decompressed data (same η-rounded values), and the
  * filtering lemmas must demonstrably fire.
  */
class QueriesSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.CD.defaultInterval, params)
  private lazy val grid = Grid.over(net, params.gridCells)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 60)

  private lazy val compressed: Map[Long, CompressedTraj] =
    trajs.map(t => t.id -> Compressor.compress(meta, params, t).ct).toMap
  private lazy val decompressed: Map[Long, UTraj] =
    compressed.map { case (id, ct) => id -> Decompressor.decompress(meta, ct) }
  private lazy val engine: QueryEngine = {
    val parts = trajs.map(t => StIU.buildFor(net, grid, meta, params, t, compressed(t.id)))
    new QueryEngine(net, meta, StIU.assemble(grid, params.slotSeconds, parts), compressed)
  }

  private val alphas = Seq(0.05, 0.15, 0.3, 0.6)

  test("where agrees with ground truth at sample timestamps") {
    trajs.take(30).foreach { t =>
      val tq = t.times(t.times.length / 2)
      alphas.foreach { a =>
        val got = engine.where(t.id, tq, a)
        val exp = GroundTruth.where(net, decompressed(t.id), tq, a)
        assert(got == exp, s"traj ${t.id} alpha $a")
      }
    }
  }

  test("where agrees with ground truth between samples (interpolation)") {
    trajs.take(30).foreach { t =>
      val i = t.times.length / 2
      if (i + 1 < t.times.length && t.times(i + 1) - t.times(i) >= 2) {
        val tq = (t.times(i) + t.times(i + 1)) / 2
        val got = engine.where(t.id, tq, 0.1)
        val exp = GroundTruth.where(net, decompressed(t.id), tq, 0.1)
        assert(got == exp, s"traj ${t.id}")
      }
    }
  }

  test("bracket decodes T̂ only up to t and answers as over the full decode, at every t of a span") {
    // The bracket as it was: the whole suffix of T̂ from the temporal entry.
    def fromFullSuffix(ct: CompressedTraj, t: Int): Option[(Int, Int, Int)] =
      engine.index.temporal(ct.id).takeWhile(_.tStart <= t).lastOption.flatMap { e =>
        val ts = Decompressor.timesFrom(ct, e.tNo, e.tStart)
        if (t > ts.last) None
        else {
          var k = 0
          while (k < ts.length - 1 && ts(k + 1) < t) k += 1
          Some((e.tNo + k, ts(k), ts(math.min(k + 1, ts.length - 1))))
        }
      }
    trajs.take(20).foreach { t =>
      val ct = compressed(t.id)
      val full = Decompressor.times(ct)
      (full.head - 1 to full.last + 1).foreach { tq =>
        assert(engine.bracket(ct, tq) == fromFullSuffix(ct, tq), s"traj ${t.id} t $tq")
      }
      // The bounded decode is a prefix of the full one, ending at the first
      // timestamp after the start that reaches t.
      val mid = full.length / 2
      val until = full(mid) + 1
      val part = Decompressor.timesFrom(ct, 0, full.head, until)
      val end = full.indices.find(i => i > 0 && full(i) >= until).getOrElse(full.length - 1)
      assert(part.toSeq == full.take(end + 1).toSeq, s"traj ${t.id}")
    }
  }

  test("where outside the time span is empty") {
    val t = trajs.head
    assert(engine.where(t.id, t.times.head - 100, 0.1).isEmpty)
    assert(engine.where(t.id, t.times.last + 100, 0.1).isEmpty)
  }

  test("where at the first and last timestamps returns the endpoints") {
    trajs.take(15).foreach { t =>
      Seq(t.times.head, t.times.last).foreach { tq =>
        val got = engine.where(t.id, tq, 0.0)
        val exp = GroundTruth.where(net, decompressed(t.id), tq, 0.0)
        assert(got == exp)
      }
    }
  }

  test("when agrees with ground truth at mapped locations of each instance") {
    val rnd = new Random(31)
    trajs.take(30).foreach { t =>
      val dec = decompressed(t.id)
      val inst = dec.instances(rnd.nextInt(dec.instances.length))
      val l = PathOps.resolve(net, inst).mapped(rnd.nextInt(inst.numSamples))
      alphas.foreach { a =>
        val got = engine.when(t.id, l.edge.from, l.edge.to, l.rd, a)
        val exp = GroundTruth.when(net, dec, l.edge.from, l.edge.to, l.rd, a)
        assert(got == exp, s"traj ${t.id} loc ${l.edge.from}->${l.edge.to}@${l.rd} alpha $a")
      }
    }
  }

  test("when at mid-edge positions between samples agrees with ground truth") {
    trajs.take(20).foreach { t =>
      val dec = decompressed(t.id)
      val inst = dec.instances.head
      val es = PathOps.pathEdges(net, inst)
      val e = es(es.length / 2)
      val got = engine.when(t.id, e.from, e.to, 0.37, 0.1)
      val exp = GroundTruth.when(net, dec, e.from, e.to, 0.37, 0.1)
      assert(got == exp, s"traj ${t.id}")
    }
  }

  /** 52 HZ trajectories at Table 7's defaults: (network, store, decoded, engine). */
  private lazy val hz = {
    val hzNet = RoadNetworkGen.generate(RoadNetworkGen.HZ)
    val hzParams = Params()
    val hzMeta = DatasetMeta.of(hzNet, UncertainTrajGen.HZ.defaultInterval, hzParams)
    val hzGrid = Grid.over(hzNet, hzParams.gridCells)
    val hzTrajs = UncertainTrajGen.dataset(hzNet, UncertainTrajGen.HZ, 52)
    val store = hzTrajs.map(t => t.id -> Compressor.compress(hzMeta, hzParams, t).ct).toMap
    val parts = hzTrajs.map(t => StIU.buildFor(hzNet, hzGrid, hzMeta, hzParams, t, store(t.id)))
    val hzEngine = new QueryEngine(hzNet, hzMeta, StIU.assemble(hzGrid, hzParams.slotSeconds, parts), store)
    (hzNet, store, hzTrajs.map(t => Decompressor.decompress(hzMeta, store(t.id))), hzEngine)
  }

  test("when finds a pass in a cell its edge only clips (HZ trajectory 51)") {
    val (hzNet, _, hzDec, hzEngine) = hz
    val got = hzEngine.when(51, 2110, 2053, 0.2373, 0.3)
    assert(got.size == 1 && math.abs(got.head - 79196.06) < 0.005, got)
    assert(got == GroundTruth.when(hzNet, hzDec.find(_.id == 51).get, 2110, 2053, 0.2373, 0.3))
  }

  test("where, when and range decode each non-reference against its own reference (HZ, several groups)") {
    // Every query reads instances of several groups in one call, so a
    // non-reference rebuilt against another group's reference shows.
    val (hzNet, store, hzDec, hzEngine) = hz
    val multi = hzDec.filter(t => store(t.id).refs.length >= 2)
    assert(multi.size >= 5, multi.size)
    multi.foreach { t =>
      val ct = store(t.id)
      t.times.indices.by(3).foreach { i =>
        assert(hzEngine.where(t.id, t.times(i), 0.0) == GroundTruth.where(hzNet, t, t.times(i), 0.0), s"where traj ${t.id} at $i")
      }
      ct.nonRefs.foreach { nl =>
        val l = PathOps.resolve(hzNet, t.instances(nl.origIdx)).mapped(t.numSamples / 2)
        assert(hzEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.0) ==
          GroundTruth.when(hzNet, t, l.edge.from, l.edge.to, l.rd, 0.0), s"when traj ${t.id} instance ${nl.origIdx}")
        val (x, y) = GroundTruth.locXY(hzNet, l)
        val re = Rect(x - 200, y - 200, x + 200, y + 200)
        val tq = t.times(t.numSamples / 2)
        Seq(0.5, 0.9).foreach { a =>
          assert(hzEngine.range(re, tq, a) == GroundTruth.range(hzNet, hzDec, re, tq, a), s"range traj ${t.id} alpha $a")
        }
      }
    }
  }

  test("when reaches non-references through an ∞ tuple when only they pass the point") {
    // A mapped location of a non-reference, in a cell where every tuple of
    // the trajectory is ∞ (refHits false) and no reference passes the point.
    val cases = for {
      t <- trajs.iterator
      ct = compressed(t.id)
      dec = decompressed(t.id)
      nl <- ct.nonRefs.iterator
      path = PathOps.resolve(net, dec.instances(nl.origIdx))
      l <- path.inst.dists.indices.iterator.map(path.mapped)
      (x, y) = GroundTruth.locXY(net, l)
      tuples = engine.index.refTuples.getOrElse((t.id, grid.cellOf(x, y)), Vector.empty)
      if tuples.nonEmpty && tuples.forall(!_.refHits)
      if ct.refs.forall(rl => GroundTruth.passTimes(net, dec.times, dec.instances(rl.origIdx),
        l.edge.from, l.edge.to, l.rd).isEmpty)
    } yield (t.id, l, nl.prob)
    val found = cases.take(5).toVector
    assert(found.nonEmpty, "no point passed by non-references only in an ∞ cell")
    found.foreach { case (id, l, p) =>
      Seq(0.0, p).foreach { a =>
        val got = engine.when(id, l.edge.from, l.edge.to, l.rd, a)
        assert(got.nonEmpty, s"traj $id loc ${l.edge.from}->${l.edge.to}@${l.rd} alpha $a")
        assert(got == GroundTruth.when(net, decompressed(id), l.edge.from, l.edge.to, l.rd, a))
      }
    }
  }

  test("when on an edge no instance passes is empty") {
    val t = trajs.head
    // find an edge far from the trajectory
    val dec = decompressed(t.id)
    val used = dec.instances.flatMap(i => PathOps.pathEdges(net, i)).map(e => (e.from, e.to)).toSet
    val e = net.outEdges.flatten.find(e => !used.contains((e.from, e.to))).get
    val got = engine.when(t.id, e.from, e.to, 0.5, 0.0)
    assert(got == GroundTruth.when(net, dec, e.from, e.to, 0.5, 0.0))
  }

  test("where and when on a trajectory id the engine does not hold answer nothing") {
    // The point and time of a held trajectory, asked under another id.
    val t = trajs.head
    val tq = t.times(t.times.length / 2)
    val l = PathOps.resolve(net, decompressed(t.id).instances.head).mapped(t.numSamples / 2)
    assert(engine.where(t.id, tq, 0.0).nonEmpty && engine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.0).nonEmpty)
    val unknown = compressed.keys.max + 1
    assert(engine.where(unknown, tq, 0.0).isEmpty)
    assert(engine.when(unknown, l.edge.from, l.edge.to, l.rd, 0.0).isEmpty)
  }

  test("a Java-serialized engine answers every query like the original") {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(engine)
    out.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[QueryEngine]
    trajs.take(10).foreach { t =>
      val tq = t.times(t.times.length / 2)
      val l = PathOps.resolve(net, decompressed(t.id).instances.head).mapped(t.numSamples / 2)
      val (cx, cy) = GroundTruth.locXY(net, l)
      val re = Rect(cx - 1500, cy - 1500, cx + 1500, cy + 1500)
      alphas.foreach { a =>
        assert(back.where(t.id, tq, a) == engine.where(t.id, tq, a), s"where traj ${t.id} alpha $a")
        assert(back.when(t.id, l.edge.from, l.edge.to, l.rd, a) == engine.when(t.id, l.edge.from, l.edge.to, l.rd, a),
          s"when traj ${t.id} alpha $a")
        assert(back.range(re, tq, a) == engine.range(re, tq, a), s"range traj ${t.id} alpha $a")
      }
    }
  }

  test("Lemma 1 fires: low-p_max groups are skipped without decompression") {
    // Query many locations at a high alpha; whenever every non-reference of
    // a group is below alpha, the group must be skipped.
    val before = engine.stats.lemma1Prunes
    trajs.take(40).foreach { t =>
      val dec = decompressed(t.id)
      dec.instances.drop(1).take(1).foreach { inst =>
        val l = PathOps.resolve(net, inst).mapped(inst.numSamples / 2)
        engine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.95)
      }
    }
    assert(engine.stats.lemma1Prunes > before, "Lemma 1 never fired")
  }

  test("range agrees with ground truth on random regions") {
    val rnd = new Random(33)
    val decAll = trajs.map(t => decompressed(t.id))
    (1 to 25).foreach { _ =>
      val t = trajs(rnd.nextInt(trajs.size))
      val tq = t.times(rnd.nextInt(t.times.length))
      val inst = decompressed(t.id).instances.head
      val loc = GroundTruth.locationAt(net, decompressed(t.id).times, inst, tq).get
      val (cx, cy) = GroundTruth.locXY(net, loc)
      val half = 300.0 + rnd.nextInt(1500)
      val re = Rect(cx - half, cy - half, cx + half, cy + half)
      Seq(0.2, 0.5, 0.9).foreach { a =>
        val got = engine.range(re, tq, a)
        val exp = GroundTruth.range(net, decAll, re, tq, a)
        assert(got == exp, s"tq=$tq re=$re alpha=$a")
      }
    }
  }

  test("range at a sample timestamp, with a region edge through that sample, agrees with ground truth") {
    // The sample's location is the mapped location itself, not one
    // re-derived from its network offset, which may differ in the last bits
    // and fall on the other side of the region's edge.
    val decAll = trajs.map(t => decompressed(t.id))
    val d = decompressed(trajs.head.id)
    val inst = d.instances.head
    d.times.foreach { tq =>
      val (x, y) = GroundTruth.locXY(net, GroundTruth.locationAt(net, d.times, inst, tq).get)
      Seq(Rect(x, y - 50, x + 50, y + 50), Rect(x - 50, y - 50, x, y + 50),
          Rect(x - 50, y, x + 50, y + 50), Rect(x - 50, y - 50, x + 50, y)).foreach { re =>
        val a = GroundTruth.overlapProb(net, d, re, tq) // the mass hinges on this sample
        assert(engine.range(re, tq, a) == GroundTruth.range(net, decAll, re, tq, a), s"tq=$tq re=$re alpha=$a")
      }
    }
  }

  test("range with a region covering the whole network returns every live trajectory") {
    val (minX, minY, maxX, maxY) = net.boundingBox
    val re = Rect(minX - 10, minY - 10, maxX + 10, maxY + 10)
    val t = trajs.head
    val tq = t.times(t.times.length / 2)
    val decAll = trajs.map(x => decompressed(x.id))
    assert(engine.range(re, tq, 0.99) == GroundTruth.range(net, decAll, re, tq, 0.99))

    // At α = 0 Def. 12 admits exactly the trajectories alive at tq: also
    // those away from a small region, and none whose samples end before tq.
    val tedDs = TedCompressor.compress(meta, trajs)
    val ted = new TedQueryEngine(net, tedDs, grid, params.slotSeconds)
    val tedAll = tedDs.trajs.map(TedCompressor.decompressTraj(tedDs, _))
    val dec = decompressed(t.id)
    val (cx, cy) = GroundTruth.locXY(net, GroundTruth.locationAt(net, dec.times, dec.instances.head, tq).get)
    val small = Rect(cx - 500, cy - 500, cx + 500, cy + 500)
    Seq(tq, t.times.last + 1).foreach { at =>
      val live = trajs.filter(x => x.times.head <= at && at <= x.times.last).map(_.id).toSet
      assert(live.contains(t.id) == (at == tq))
      Seq(re, small).foreach { r =>
        assert(GroundTruth.range(net, decAll, r, at, 0.0) == live, s"oracle tq=$at re=$r")
        assert(engine.range(r, at, 0.0) == live, s"engine tq=$at re=$r")
        assert(GroundTruth.range(net, tedAll, r, at, 0.0) == live, s"oracle on TED data tq=$at re=$r")
        assert(ted.range(r, at, 0.0) == live, s"TED tq=$at re=$r")
      }
    }
  }

  test("range with an empty region returns nothing") {
    val (minX, minY, _, _) = net.boundingBox
    val re = Rect(minX - 5000, minY - 5000, minX - 4000, minY - 4000)
    val t = trajs.head
    assert(engine.range(re, t.times.head, 0.1).isEmpty)
  }

  test("range finds a trajectory in a slot that a sampling gap leaves without a sample") {
    // Trajectory 3 with its second half two slots later: the slot after its
    // last early sample holds no sample, yet the trajectory is live there,
    // interpolated between the samples around the gap.
    val orig = trajs(3)
    val h = orig.numSamples / 2
    val gapped = orig.copy(times = orig.times.indices.map(k =>
      orig.times(k) + (if (k >= h) 2 * params.slotSeconds else 0)).toArray)
    val all = trajs.map(t => if (t.id == gapped.id) gapped else t)
    val store = compressed + (gapped.id -> Compressor.compress(meta, params, gapped).ct)
    val parts = all.map(t => StIU.buildFor(net, grid, meta, params, t, store(t.id)))
    val gapEngine = new QueryEngine(net, meta, StIU.assemble(grid, params.slotSeconds, parts), store)
    val decAll = all.map(t => Decompressor.decompress(meta, store(t.id)))
    val tedDs = TedCompressor.compress(meta, all)
    val ted = new TedQueryEngine(net, tedDs, grid, params.slotSeconds)
    val tedAll = tedDs.trajs.map(TedCompressor.decompressTraj(tedDs, _))

    val slot = gapped.times(h - 1) / params.slotSeconds + 1
    assert(gapped.times.forall(_ / params.slotSeconds != slot))
    val tq = slot * params.slotSeconds + params.slotSeconds / 2
    val dec = decAll.find(_.id == gapped.id).get
    val (cx, cy) = GroundTruth.locXY(net, GroundTruth.locationAt(net, dec.times, dec.instances.head, tq).get)
    val (minX, minY, maxX, maxY) = net.boundingBox
    val whole = Rect(minX - 10, minY - 10, maxX + 10, maxY + 10)
    assert(GroundTruth.range(net, decAll, whole, tq, 0.5).contains(gapped.id))
    Seq(whole, Rect(cx - 500, cy - 500, cx + 500, cy + 500)).foreach { re =>
      Seq(0.2, 0.5, 0.9).foreach { a =>
        assert(gapEngine.range(re, tq, a) == GroundTruth.range(net, decAll, re, tq, a), s"re=$re alpha=$a")
        assert(ted.range(re, tq, a) == GroundTruth.range(net, tedAll, re, tq, a), s"TED re=$re alpha=$a")
      }
    }
    assert(gapEngine.where(gapped.id, tq, 0.1) == GroundTruth.where(net, dec, tq, 0.1))
  }

  test("Lemmas 2/3/4 fire during range processing") {
    val s = engine.stats
    val rnd = new Random(35)
    (1 to 20).foreach { _ =>
      val t = trajs(rnd.nextInt(trajs.size))
      val tq = t.times(t.times.length / 2)
      val v = t.instances.head.sv
      val half = 200.0 + rnd.nextInt(2500)
      engine.range(Rect(net.xs(v) - half, net.ys(v) - half, net.xs(v) + half, net.ys(v) + half), tq, 0.4)
    }
    assert(s.lemma4Prunes > 0, "Lemma 4 never fired")
    assert(s.lemma2Contained + s.lemma2Disjoint > 0, "Lemma 2 never fired")
    assert(s.lemma3EarlyAccepts > 0, "Lemma 3 never fired")
  }

  test("query results vs the ORIGINAL data stay within the eta error bounds") {
    // The F1/average-difference experiment (Fig. 11): compressed-side where
    // results deviate from original-data results by at most the distance
    // quantization error over an edge.
    // A quantized location can slip across a vertex onto an adjacent edge,
    // so compare by proximity: every compressed-side location must be within
    // `tol` metres of some original-side location along the network (and
    // vice versa), where tol covers eta_D on two bracketing samples.
    val tol = 2.0 * (1.0 / 128) * 500 + 1.0
    def near(a: (Int, Int, Double), b: (Int, Int, Double)): Boolean =
      if (a._1 == b._1 && a._2 == b._2) math.abs(a._3 - b._3) <= tol
      else {
        // adjacent-edge slip: compare planar coordinates
        def xy(l: (Int, Int, Double)) = {
          val e = net.edgeBetween(l._1, l._2).get
          val f = l._3 / e.length
          (net.xs(e.from) + f * (net.xs(e.to) - net.xs(e.from)),
            net.ys(e.from) + f * (net.ys(e.to) - net.ys(e.from)))
        }
        val (ax, ay) = xy(a); val (bx, by) = xy(b)
        math.hypot(ax - bx, ay - by) <= tol
      }
    trajs.take(20).foreach { t =>
      val tq = t.times(t.times.length / 2)
      val got = engine.where(t.id, tq, 0.01)
      val exp = GroundTruth.where(net, t, tq, 0.01)
      got.foreach(g => assert(exp.exists(near(g, _)), s"traj ${t.id}: no original near $g"))
      exp.foreach(e => assert(got.exists(near(_, e)), s"traj ${t.id}: no compressed near $e"))
    }
  }

  test("partial decompression: where only touches instances above alpha") {
    val t = trajs.find(_.instances.length >= 4).get
    val before = engine.stats.instanceDecompressions
    engine.where(t.id, t.times(1), 2.0) // alpha above every probability
    assert(engine.stats.instanceDecompressions == before)
  }
}
