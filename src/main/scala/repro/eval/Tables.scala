package repro.eval

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.baseline.TedCompressor
import repro.core.Sizes
import repro.network.RoadNetworkGen
import repro.spark.UtcqSpark

/** Shared computation behind the evaluation tables (§6). Both the bench
  * suites (`sbt "bench/test"`) and the spark-submit jobs call these.
  */
object Tables {

  // ------------------------------------------------------------- Table 5

  final case class Table5Row(
      dataset: String,
      storageMB: Double,
      numTrajectories: Long,
      avgInstances: Double,
      minInstances: Int,
      maxInstances: Int,
      avgEdges: Double,
      minEdges: Int,
      maxEdges: Int,
      defaultInterval: Int,
  )

  /** Dataset statistics à la Table 5 over the generated NCUTs. "Storage"
    * is the uncompressed-baseline byte count (see DESIGN.md §4).
    */
  def table5(spark: SparkSession, profile: String, sf: Double): Table5Row = {
    import spark.implicits._
    val ds = SynthData.uncertainTrajectories(spark, profile, sf).cache()
    val stats = ds
      .map { t =>
        val edgeCounts = t.instances.map(i => i.edges.count(_ != 0))
        (Sizes.original(t).total, 1L, t.instances.length.toLong, t.instances.length,
          t.instances.length, edgeCounts.sum.toLong, edgeCounts.min, edgeCounts.max)
      }
      .reduce { (a, b) =>
        (a._1 + b._1, a._2 + b._2, a._3 + b._3, math.min(a._4, b._4), math.max(a._5, b._5),
          a._6 + b._6, math.min(a._7, b._7), math.max(a._8, b._8))
      }
    val (bits, n, instSum, instMin, instMax, edgeSum, edgeMin, edgeMax) = stats
    val totalInstances = instSum
    val (_, trajP, _) = SynthData.profiles(profile)
    ds.unpersist()
    Table5Row(profile, bits / 8.0 / 1024 / 1024, n, instSum.toDouble / n, instMin, instMax,
      edgeSum.toDouble / totalInstances, edgeMin, edgeMax, trajP.defaultInterval)
  }

  // ------------------------------------------------------------- Table 6

  final case class Table6Row(dataset: String, numEdges: Int, numVertices: Int, avgOutDegree: Double)

  def table6(profile: String): Table6Row = {
    val (netP, _, _) = SynthData.profiles(profile)
    val net = RoadNetworkGen.generate(netP)
    Table6Row(profile, net.numEdges, net.numVertices, net.avgOutDegree)
  }

  // ------------------------------------------------------------- Table 8

  final case class Ratios(total: Double, t: Double, e: Double, d: Double, tf: Double, p: Double)

  final case class Table8Row(
      dataset: String,
      utcq: Ratios,
      utcqSeconds: Double,      // Spark job wall-clock (includes scheduling)
      utcqLocalSeconds: Double, // single-threaded kernel time, comparable to TED's
      ted: Ratios,
      tedSeconds: Double,
  )

  def ratios(original: Sizes, compressed: Sizes): Ratios = Ratios(
    total = original.total.toDouble / compressed.total,
    t = original.t.toDouble / compressed.t,
    e = original.e.toDouble / compressed.e,
    d = original.d.toDouble / compressed.d,
    tf = original.tf.toDouble / compressed.tf,
    p = original.p.toDouble / compressed.p,
  )

  /** UTCQ vs TED on one generated dataset: per-component compression
    * ratios and wall-clock compression times. UTCQ runs as the partitioned
    * Spark job; TED (faithful to its design) must gather every edge
    * sequence for the matrix stage, so it runs on the collected dataset.
    */
  def table8(spark: SparkSession, profile: String, sf: Double): Table8Row = {
    import spark.implicits._
    val (netP, trajP, baseCount) = SynthData.profiles(profile)
    val params = SynthData.paramsFor(profile)
    val pipe = UtcqSpark.pipeline(netP, trajP, params)
    val n = math.max(1, (baseCount * sf).toInt)

    val trajs = UtcqSpark.generate(spark, pipe.net, trajP, n).cache()
    trajs.count()
    val original = trajs.map(t => Sizes.original(t)).reduce(_ + _)

    val t0 = System.nanoTime()
    val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajs).cache()
    val utcqSizes = UtcqSpark.totalSizes(rows)
    val utcqSecs = (System.nanoTime() - t0) / 1e9
    rows.unpersist()

    val local = trajs.collect().toSeq
    val t1 = System.nanoTime()
    val ted = TedCompressor.compress(pipe.meta, local)
    val tedSecs = (System.nanoTime() - t1) / 1e9

    // Single-threaded UTCQ kernel time (the paper's C++ setting is one
    // machine, one process) for a like-for-like time factor vs TED.
    val t2 = System.nanoTime()
    local.foreach(t => repro.core.Compressor.compress(pipe.meta, params, t))
    val utcqLocalSecs = (System.nanoTime() - t2) / 1e9
    trajs.unpersist()

    Table8Row(profile, ratios(original, utcqSizes), utcqSecs, utcqLocalSecs,
      ratios(original, ted.sizes), tedSecs)
  }

  def formatTable8(r: Table8Row): String = {
    def f(x: Double) = f"$x%8.3f"
    s"${r.dataset}  UTCQ: total=${f(r.utcq.total)} T=${f(r.utcq.t)} E=${f(r.utcq.e)} " +
      s"D=${f(r.utcq.d)} T'=${f(r.utcq.tf)} p=${f(r.utcq.p)} " +
      s"time=${f(r.utcqSeconds)}s (kernel ${f(r.utcqLocalSeconds)}s)\n" +
      s"${r.dataset}  TED : total=${f(r.ted.total)} T=${f(r.ted.t)} E=${f(r.ted.e)} " +
      s"D=${f(r.ted.d)} T'=${f(r.ted.tf)} p=${f(r.ted.p)} time=${f(r.tedSeconds)}s"
  }
}
