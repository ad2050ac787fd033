package utcqbench

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.UtcqSpark

/** Counts in the per-layer metrics are exact: the same seed gives the same
  * numbers, in a fresh engine and a fresh Spark job.
  */
class RepeatSpec extends AnyFunSuite {

  private val counts = Seq(
    "core.blob_bits_per_inst", "core.bits_per_inst_t", "core.bits_per_inst_e", "core.bits_per_inst_d",
    "core.bits_per_inst_tf", "core.bits_per_inst_p", "core.bits_per_inst_sv", "core.bits_per_inst_overhead",
    "core.refs_per_traj", "core.layout_cache_bits_per_inst", "index.size_bits_per_inst",
    "index.temporal_per_traj", "index.ref_tuples_per_traj", "index.nonref_tuples_per_traj")

  private def probe(seed: Long): Map[String, Double] = {
    val tracer = new Tracer
    tracer.enabled = true
    val tally = new Tally
    val m = Probe.ingest(Inputs.hz(seed, 80), tracer, tally)
    assert(tally.failed == 0)
    m
  }

  test("bits per component, references and index tuples repeat on the same seed") {
    val (a, b, c) = (probe(4), probe(4), probe(5))
    counts.foreach(k => assert(a(k) == b(k), k))
    assert(counts.exists(k => a(k) != c(k)), "another seed gives other data")
    assert(a("core.blob_bits_per_inst") == counts.drop(1).take(7).map(a).sum)
  }

  test("decoded instances and lemma counts per query repeat on the same seed") {
    def run() = {
      val s = Queries.build(Inputs.hz(6, 300))
      Probe.queries(s.engine, Inputs.queries(s.d.net, s.d.trajs, 6, 40, "wnr"))
    }
    val (a, b) = (run(), run())
    assert(a == b)
    assert(a("query.range.candidates_per_q") > 0 && a("query.where.decoded_inst_per_q") > 0)
  }

  test("shuffle bytes and tasks of the Spark ingest job repeat on the same seed") {
    val spark = SparkRun.session(SparkRun.cores)
    try {
      val probe = new SparkProbe
      spark.sparkContext.addSparkListener(probe)
      val d = Inputs.hz(7, 60)
      val trajs = spark.createDataset(d.trajs)(org.apache.spark.sql.Encoders.product[repro.traj.UTraj]).cache()
      trajs.count()
      def ingest(name: String): OpStats = {
        spark.sparkContext.setLocalProperty(SparkProbe.Key, name)
        UtcqSpark.compress(spark, d.net, d.meta, Inputs.params, trajs).count()
        spark.sparkContext.setLocalProperty(SparkProbe.Key, null)
        val deadline = System.nanoTime() + 20e9.toLong
        while (!probe.hasEnded(name) && System.nanoTime() < deadline) Thread.sleep(10)
        probe.stats(name)
      }
      val (a, b) = (ingest("a"), ingest("b"))
      assert(a.shuffleWriteBytes > 0)
      assert((a.shuffleWriteBytes, a.tasks, a.jobs) == ((b.shuffleWriteBytes, b.tasks, b.jobs)))
    } finally spark.stop()
  }
}
