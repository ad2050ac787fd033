package repro.baseline

import repro.SparkSpec
import repro.core.{DatasetMeta, GroundTruth, Params, Sizes}
import repro.index.Grid
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UncertainTrajGen}
import scala.util.Random

class TedSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params()
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.CD.defaultInterval, params)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 60)
  private lazy val ds = TedCompressor.compress(meta, trajs)

  test("TED round-trips: E, T', T, SV lossless; D, p eta-bounded") {
    trajs.zip(ds.trajs).foreach { case (orig, tt) =>
      val back = TedCompressor.decompressTraj(ds, tt)
      assert(back.times.toSeq == orig.times.toSeq, s"times of ${orig.id}")
      orig.instances.zip(back.instances).foreach { case (o, d) =>
        assert(d.sv == o.sv)
        assert(d.edges.toSeq == o.edges.toSeq)
        assert(d.tflags.toSeq == o.tflags.toSeq)
        o.dists.zip(d.dists).foreach { case (a, b) => assert(math.abs(a - b) <= params.etaD) }
        assert(math.abs(d.prob - o.prob) <= params.etaP)
      }
    }
  }

  test("matrix entries decode from the multiple-bases encoding") {
    ds.groups.foreach { g =>
      (0 until math.min(g.numRows, 5)).foreach { r =>
        val row = g.decodeRow(r)
        assert(row.length == g.eLen)
        row.foreach(v => assert(v >= 0 && v <= net.maxOutDegree))
      }
    }
  }

  test("column bases bound every entry of the group") {
    ds.groups.foreach { g =>
      assert(g.bases.length == g.eLen)
      (0 until math.min(g.numRows, 5)).foreach { r =>
        val row = g.decodeRow(r)
        row.indices.foreach(c => assert(row(c) < math.max(1, g.bases(c))))
      }
    }
  }

  test("mixed-radix packing beats or matches uniform-width coding") {
    ds.groups.foreach { g =>
      val uniform = g.numRows.toLong * g.eLen * meta.symBits
      assert(g.rows.length <= uniform, s"group eLen=${g.eLen}")
    }
  }

  test("mixed-radix row bits equal ceil(log2 of the base product)") {
    assert(TedCompressor.rowBitsFor(Array(2, 2, 2)) == 3)
    assert(TedCompressor.rowBitsFor(Array(3, 3)) == 4) // 9 values -> 4 bits
    assert(TedCompressor.rowBitsFor(Array(1, 1)) == 0)
    assert(TedCompressor.rowBitsFor(Array(5, 1, 3)) == 4) // 15 values -> 4 bits
  }

  test("packRow/decodeRow round-trip mixed-radix rows") {
    val bases = Array(4, 1, 3, 5)
    val edges = Array(3, 0, 2, 4)
    val v = TedCompressor.packRow(edges, bases)
    assert(v == BigInt(3) * 15 + 2 * 5 + 4)
  }

  test("time-pair representation is exact for runs of equal intervals") {
    val rnd = new Random(9)
    (1 to 100).foreach { _ =>
      val n = 2 + rnd.nextInt(40)
      val times = new Array[Int](n)
      times(0) = rnd.nextInt(10000)
      (1 until n).foreach { i =>
        times(i) = times(i - 1) + (if (rnd.nextDouble() < 0.7) 240 else 200 + rnd.nextInt(80))
      }
      val pairs = TedCompressor.timePairs(times)
      assert(TedCompressor.restoreTimes(pairs, n).toSeq == times.toSeq)
    }
  }

  test("stable intervals need fewer pairs than unstable ones") {
    val stable = Array.tabulate(30)(i => i * 240)
    val rnd = new Random(10)
    val unstable = new Array[Int](30)
    (1 until 30).foreach(i => unstable(i) = unstable(i - 1) + 230 + rnd.nextInt(20))
    assert(TedCompressor.timePairs(stable).length < TedCompressor.timePairs(unstable).length)
  }

  test("TED D and p ratios equal the paper's fixed-width arithmetic") {
    val original = trajs.map(Sizes.original).reduce(_ + _)
    // D: 64-bit doubles to 7-bit PDDP codes = 9.143; p: 64/9 = 7.111.
    assert(math.abs(original.d.toDouble / ds.sizes.d - 64.0 / 7) < 1e-6)
    assert(math.abs(original.p.toDouble / ds.sizes.p - 64.0 / 9) < 1e-6)
    // T' is stored raw: ratio exactly 1.
    assert(original.tf == ds.sizes.tf)
  }

  test("UTCQ compresses better than TED on the same data (Table 8 shape)") {
    val original = trajs.map(Sizes.original).reduce(_ + _)
    val utcq = trajs
      .map(t => repro.core.Compressor.compress(meta, params, t).ct.sizes)
      .reduce(_ + _)
    val utcqRatio = original.total.toDouble / utcq.total
    val tedRatio = original.total.toDouble / ds.sizes.total
    assert(utcqRatio > tedRatio, s"UTCQ $utcqRatio vs TED $tedRatio")
    assert(utcqRatio > 1.5 * tedRatio, s"expected a clear factor: $utcqRatio vs $tedRatio")
  }

  test("TED query engine answers like ground truth (after full decompression)") {
    val grid = Grid.over(net, 16)
    val engine = new TedQueryEngine(net, ds, grid, params.slotSeconds)
    val rnd = new Random(12)
    trajs.take(15).foreach { orig =>
      val tt = ds.trajs.find(_.id == orig.id).get
      val dec = TedCompressor.decompressTraj(ds, tt)
      val tq = dec.times(dec.times.length / 2)
      assert(engine.where(orig.id, tq, 0.2) == GroundTruth.where(net, dec, tq, 0.2))
      val inst = dec.instances.head
      val l = PathOps.resolve(net, inst).mapped(rnd.nextInt(inst.numSamples))
      assert(engine.when(orig.id, l.edge.from, l.edge.to, l.rd, 0.2) ==
        GroundTruth.when(net, dec, l.edge.from, l.edge.to, l.rd, 0.2))
    }
  }

  test("TED where and when answer nothing for an id or a vertex they do not hold") {
    val engine = new TedQueryEngine(net, ds, Grid.over(net, 16), params.slotSeconds)
    val known = ds.trajs.head
    val missing = ds.trajs.map(_.id).max + 1
    val t = TedCompressor.restoreTimes(known.timePairs, known.numSamples).head
    assert(engine.where(missing, t, 0.0).isEmpty)
    val e = net.outEdges.find(_.nonEmpty).get.head
    assert(engine.when(missing, e.from, e.to, 0.5, 0.0).isEmpty)
    Seq(-1, net.numVertices).foreach { vs =>
      assert(engine.when(known.id, vs, e.to, 0.5, 0.0).isEmpty, s"vs = $vs")
      assert(engine.when(known.id, e.from, vs, 0.5, 0.0).isEmpty, s"ve = $vs")
    }
  }

  test("TED when agrees with ground truth at random points of every path, also in cells an edge only clips") {
    // With a 32×32 grid some edges cross a cell without ending or having
    // their midpoint in it; a pass there must still be found.
    val grid = Grid.over(net, 32)
    val engine = new TedQueryEngine(net, ds, grid, params.slotSeconds)
    val rnd = new Random(2)
    ds.trajs.foreach { tt =>
      val dec = TedCompressor.decompressTraj(ds, tt)
      (1 to 30).foreach { _ =>
        val es = PathOps.pathEdges(net, dec.instances(rnd.nextInt(dec.instances.length)))
        val e = es(rnd.nextInt(es.length))
        val rd = rnd.nextDouble()
        assert(engine.when(tt.id, e.from, e.to, rd, 0.0) == GroundTruth.when(net, dec, e.from, e.to, rd, 0.0),
          s"traj ${tt.id} at ${e.from}->${e.to}@$rd")
      }
    }
  }

  test("TED range query agrees with ground truth") {
    val grid = Grid.over(net, 16)
    val engine = new TedQueryEngine(net, ds, grid, params.slotSeconds)
    val decAll = ds.trajs.map(TedCompressor.decompressTraj(ds, _))
    val rnd = new Random(13)
    (1 to 10).foreach { _ =>
      val t = decAll(rnd.nextInt(decAll.size))
      val tq = t.times(t.times.length / 2)
      val v = t.instances.head.sv
      val half = 500.0 + rnd.nextInt(2000)
      val re = GroundTruth.Rect(net.xs(v) - half, net.ys(v) - half, net.xs(v) + half, net.ys(v) + half)
      assert(engine.range(re, tq, 0.5) == GroundTruth.range(net, decAll, re, tq, 0.5))
    }
  }

  test("TED decompresses more instances than UTCQ's filtered engine for when queries") {
    val grid = Grid.over(net, 16)
    val tedEngine = new TedQueryEngine(net, ds, grid, params.slotSeconds)
    val parts = trajs.map { t =>
      val res = repro.core.Compressor.compress(meta, params, t)
      repro.index.StIU.buildFor(net, grid, meta, params, t, res.ct)
    }
    val store = trajs.map(t => t.id -> repro.core.Compressor.compress(meta, params, t).ct).toMap
    val utcqEngine = new repro.core.QueryEngine(net, meta,
      repro.index.StIU.assemble(grid, params.slotSeconds, parts), store)
    trajs.take(20).foreach { t =>
      val inst = t.instances.last
      val l = PathOps.resolve(net, inst).mapped(inst.numSamples / 2)
      tedEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.9)
      utcqEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.9)
    }
    assert(utcqEngine.stats.instanceDecompressions < tedEngine.instanceDecompressions,
      s"UTCQ ${utcqEngine.stats.instanceDecompressions} vs TED ${tedEngine.instanceDecompressions}")
  }
}
