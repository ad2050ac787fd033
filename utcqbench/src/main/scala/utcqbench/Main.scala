package utcqbench

import java.nio.file.Paths

/** Command line of one run. */
final case class Config(workload: String, seed: Long, seconds: Double, trace: Boolean)

/** The UTCQ benchmark: one workload per run, a single closed-loop client,
  * every output checked. With `--trace 0` it prints the end-to-end
  * metrics; with `--trace 1` it traces every second measured round and
  * prints the per-layer metrics. The last line of standard output is the
  * run's JSON result.
  */
object Main {

  val workloads: Seq[String] = Seq("ingest_hz", "query_hz", "spark_hz")

  /** End-to-end metrics, printed by every workload (see README.md for what
    * each means on each workload).
    */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "compress_ratio" -> "ratio",
    "stored_ratio" -> "ratio",
    "write_inst_per_s" -> "1/s",
    "read_per_s" -> "1/s",
    "op_ms_p50" -> "ms",
    "op_ms_p90" -> "ms",
  )

  private val layerNames = Seq("bench", "core", "index", "util", "query", "spark")

  /** Per-layer metrics, printed by every workload; a layer a workload does
    * not enter reports 0.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "core.pivots_ms" -> "ms", "core.pivots_busy_ms" -> "ms",
    "core.score_matrix_ms" -> "ms", "core.score_matrix_busy_ms" -> "ms",
    "core.refselect_ms" -> "ms", "core.refselect_busy_ms" -> "ms",
    "core.encode_ms" -> "ms", "core.encode_busy_ms" -> "ms",
    "core.compress_wait_ms" -> "ms",
    "core.decompress_ms" -> "ms", "core.decompress_busy_ms" -> "ms",
    "core.blob_bits_per_inst" -> "bit",
    "core.bits_per_inst_t" -> "bit", "core.bits_per_inst_e" -> "bit", "core.bits_per_inst_d" -> "bit",
    "core.bits_per_inst_tf" -> "bit", "core.bits_per_inst_p" -> "bit", "core.bits_per_inst_sv" -> "bit",
    "core.bits_per_inst_overhead" -> "bit",
    "core.refs_per_traj" -> "count",
    "core.layout_cache_bits_per_inst" -> "bit",
    "util.write_mbit_per_s" -> "Mbit/s", "util.read_mbit_per_s" -> "Mbit/s",
    "index.build_ms" -> "ms", "index.build_busy_ms" -> "ms",
    "index.assemble_ms" -> "ms", "index.assemble_busy_ms" -> "ms",
    "index.size_bits_per_inst" -> "bit",
    "index.temporal_per_traj" -> "count", "index.ref_tuples_per_traj" -> "count",
    "index.nonref_tuples_per_traj" -> "count",
    "query.where_us" -> "us", "query.where_busy_us" -> "us",
    "query.when_us" -> "us", "query.when_busy_us" -> "us",
    "query.range_ms" -> "ms", "query.range_busy_ms" -> "ms",
    "query.range.candidates_per_q" -> "count", "query.range.lemma4_prune_frac" -> "ratio",
    "query.range.decoded_inst_per_q" -> "count",
    "query.range.lemma2_contained_per_q" -> "count", "query.range.lemma2_disjoint_per_q" -> "count",
    "query.range.lemma3_accepts_per_q" -> "count", "query.range.exact_checks_per_q" -> "count",
    "query.when.lemma1_prunes_per_q" -> "count", "query.when.decoded_inst_per_q" -> "count",
    "query.when.neighbour_fallback_frac" -> "ratio", "query.when.known_misses" -> "count",
    "query.where.decoded_inst_per_q" -> "count",
    "spark.session_start_s" -> "s",
    "spark.ingest.wall_ms" -> "ms", "spark.ingest.executor_cpu_ms" -> "ms",
    "spark.ingest.executor_run_ms" -> "ms", "spark.ingest.tasks" -> "count",
    "spark.ingest.shuffle_write_bytes" -> "B",
    "spark.query.jobs_per_q" -> "count", "spark.query.tasks_per_q" -> "count",
    "spark.query.rows_scanned_per_q" -> "count", "spark.query.executor_cpu_ms" -> "ms",
    "spark.query.driver_overhead_ms" -> "ms",
    "spark.cached_bytes" -> "B",
  ) ++ layerNames.flatMap(l => Seq(s"layer.$l.self_s" -> "s", s"layer.$l.busy_s" -> "s", s"layer.$l.wait_s" -> "s")) ++ Seq(
    "trace.overhead_pct" -> "%",
    "trace.spans" -> "count",
  )

  def parse(args: Array[String]): Config = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    require(args.length == 2 * kv.size, s"usage: --workload <${workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
    val w = kv.getOrElse("workload", "")
    require(workloads.contains(w), s"unknown workload '$w'; one of ${workloads.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", "--trace is 0 or 1")
    val seconds = kv.getOrElse("seconds", "10").toDouble
    require(seconds > 0, "--seconds must be positive")
    Config(w, kv.getOrElse("seed", "1").toLong, seconds, trace == "1")
  }

  def complete(catalog: Seq[(String, String)], values: Map[String, Double]): Seq[Metric] = {
    val unknown = values.keySet -- catalog.map(_._1)
    require(unknown.isEmpty, s"metrics missing from the catalog: ${unknown.mkString(", ")}")
    catalog.map { case (n, u) => Metric(n, values.getOrElse(n, 0.0), u) }
  }

  def run(cfg: Config): Outcome = {
    val tracer = new Tracer
    val tally = new Tally
    val (e2e, layers) = cfg.workload match {
      case "ingest_hz" => Ingest.run(cfg, tracer, tally)
      case "query_hz"  => Queries.run(cfg, tracer, tally)
      case "spark_hz"  => SparkRun.run(cfg, tracer, tally)
    }
    val metrics =
      if (!cfg.trace) complete(endToEnd, e2e)
      else {
        val spans = tracer.spans
        Spans.write(Paths.get(".bench_build", "traces", s"${cfg.workload}-seed${cfg.seed}.tsv"), spans)
        val byLayer = Spans.byLayer(spans)
        val selfTimes = layerNames.flatMap { l =>
          val t = byLayer.getOrElse(l, LayerTime(0, 0))
          Seq(s"layer.$l.self_s" -> t.selfNs / 1e9, s"layer.$l.busy_s" -> t.busyNs / 1e9,
            s"layer.$l.wait_s" -> t.waitNs / 1e9)
        }
        complete(perLayer, layers ++ selfTimes ++ Map(
          "trace.spans" -> spans.size.toDouble,
          "query.when.known_misses" -> tally.knownWhenMisses.toDouble))
      }
    tally.report.foreach(Console.err.println)
    Outcome(correct = tally.unexpected == 0, tally.attempted, tally.failed, metrics)
  }

  def main(args: Array[String]): Unit = {
    val outcome =
      try run(parse(args))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(1)
      }
    println(outcome.json)
  }
}
