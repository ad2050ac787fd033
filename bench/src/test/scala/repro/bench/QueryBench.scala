package repro.bench

import repro.SparkSpec
import repro.baseline.{TedCompressor, TedQueryEngine}
import repro.core._
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UncertainTrajGen}
import scala.util.Random

/** Query-time comparison UTCQ vs TED (shape of Figs. 9–10): the StIU index
  * with Lemmas 1–4 should answer with fewer instance decompressions than
  * TED's decompress-then-evaluate, and results must agree.
  */
class QueryBench extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1, gridCells = 32, slotMinutes = 30)
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.CD.defaultInterval, params)
  private lazy val grid = Grid.over(net, params.gridCells)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 800)

  private lazy val (utcqEngine, utcqBuildSecs) = {
    val t0 = System.nanoTime()
    val cts = trajs.map(t => t.id -> Compressor.compress(meta, params, t).ct).toMap
    val parts = trajs.map(t => StIU.buildFor(net, grid, meta, params, t, cts(t.id)))
    val e = new QueryEngine(net, meta, StIU.assemble(grid, params.slotSeconds, parts), cts)
    (e, (System.nanoTime() - t0) / 1e9)
  }

  private lazy val (tedEngine, tedDs) = {
    val ds = TedCompressor.compress(meta, trajs)
    (new TedQueryEngine(net, ds, grid, params.slotSeconds), ds)
  }

  private def timeIt[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  test("range queries: UTCQ and TED agree; UTCQ decompresses fewer instances") {
    val rnd = new Random(71)
    val queries = (1 to 60).map { _ =>
      val t = trajs(rnd.nextInt(trajs.size))
      val tq = t.times(t.times.length / 2)
      val v = t.instances.head.sv
      val half = 400.0 + rnd.nextInt(1800)
      (Rect(net.xs(v) - half, net.ys(v) - half, net.xs(v) + half, net.ys(v) + half), tq)
    }
    utcqEngine.stats.instanceDecompressions = 0
    tedEngine.instanceDecompressions = 0
    val (utcqResults, utcqSecs) = timeIt(queries.map { case (re, tq) => utcqEngine.range(re, tq, 0.5) })
    val (tedResults, tedSecs) = timeIt(queries.map { case (re, tq) => tedEngine.range(re, tq, 0.5) })
    println(f"=== range queries (60) === UTCQ ${utcqSecs * 1000 / 60}%.2f ms/q " +
      f"(decomp ${utcqEngine.stats.instanceDecompressions}), " +
      f"TED ${tedSecs * 1000 / 60}%.2f ms/q (decomp ${tedEngine.instanceDecompressions})")
    println(s"lemma stats: ${utcqEngine.stats}")
    assert(utcqResults == tedResults)
    assert(utcqEngine.stats.instanceDecompressions < tedEngine.instanceDecompressions)
  }

  test("when queries: UTCQ and TED agree; Lemma 1 reduces work at high alpha") {
    val rnd = new Random(72)
    utcqEngine.stats.instanceDecompressions = 0
    tedEngine.instanceDecompressions = 0
    var agree = 0
    val sample = trajs.take(150)
    val (_, utcqSecs) = timeIt {
      sample.foreach { t =>
        val inst = t.instances.head
        val l = PathOps.resolve(net, inst).mapped(rnd.nextInt(inst.numSamples))
        utcqEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.6)
      }
    }
    val rnd2 = new Random(72)
    val (_, tedSecs) = timeIt {
      sample.foreach { t =>
        val inst = t.instances.head
        val l = PathOps.resolve(net, inst).mapped(rnd2.nextInt(inst.numSamples))
        tedEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.6)
      }
    }
    // agreement check on a fresh pass (quantization-consistent inputs)
    val rnd3 = new Random(72)
    sample.foreach { t =>
      val dec = TedCompressor.decompressTraj(tedDs, tedDs.trajs.find(_.id == t.id).get)
      val inst = dec.instances.head
      val l = PathOps.resolve(net, inst).mapped(rnd3.nextInt(inst.numSamples))
      val a = utcqEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.6)
      val b = tedEngine.when(t.id, l.edge.from, l.edge.to, l.rd, 0.6)
      if (a == b) agree += 1
    }
    println(f"=== when queries (150) === UTCQ ${utcqSecs * 1000 / 150}%.3f ms/q, " +
      f"TED ${tedSecs * 1000 / 150}%.3f ms/q, agreement $agree/150")
    assert(agree == 150) // UTCQ/TED decompress identical quantized data
    assert(utcqEngine.stats.lemma1Prunes > 0)
  }

  test("where queries: UTCQ and TED agree on the same quantized data") {
    trajs.take(100).foreach { t =>
      val tq = t.times(t.times.length / 2)
      val a = utcqEngine.where(t.id, tq, 0.25)
      val b = tedEngine.where(t.id, tq, 0.25)
      assert(a == b, s"traj ${t.id}")
    }
  }

  test("index sizes: StIU is reported and finite") {
    val mb = utcqEngine.index.sizeBits / 8.0 / 1024 / 1024
    val tedMb = tedEngine.indexSizeBits / 8.0 / 1024 / 1024
    println(f"=== index sizes === StIU $mb%.3f MB (build ${utcqBuildSecs}%.1fs incl. compression), TED grid $tedMb%.3f MB")
    assert(mb > 0 && tedMb > 0)
  }
}
