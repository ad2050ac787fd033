package utcqbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.{Dataset, Encoders, SparkSession}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}
import repro.core.{Compressor, Decompressor}
import repro.index.StIU
import repro.spark.UtcqSpark
import repro.spark.UtcqSpark.CompressedRow
import repro.traj.UTraj
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Spark work of one traced operation, as the listener saw it. */
final class OpStats {
  var jobs, tasks, shuffleWriteBytes, executorCpuNs, executorRunMs, rowsScanned = 0L
  val taskIntervals = ArrayBuffer[(Long, Long)]()

  /** Milliseconds during which at least one task of the operation ran. */
  def busyMs: Long = {
    var total = 0L
    var start, end = Long.MinValue
    taskIntervals.sortBy(_._1).foreach { case (a, b) =>
      if (a > end) {
        if (end > start) total += end - start
        start = a
        end = b
      } else end = math.max(end, b)
    }
    if (end > start) total += end - start
    total
  }
}

/** Collects jobs, tasks, shuffle bytes, executor time and rows scanned from
  * cached data per operation. Operations are named by the local property
  * [[SparkProbe.Key]], which the benchmark sets only in traced rounds.
  */
final class SparkProbe extends SparkListener {
  private val stageOp = mutable.Map[Int, String]()
  private val jobOp = mutable.Map[Int, String]()
  private val scanAccumulators = mutable.Set[Long]()
  private val ended = mutable.Set[String]()
  private val ops = mutable.Map[String, OpStats]()

  def stats(op: String): OpStats = synchronized(ops.getOrElse(op, new OpStats))
  def hasEnded(op: String): Boolean = synchronized(ended.contains(op))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkProbe.Key))).foreach { op =>
      ops.getOrElseUpdate(op, new OpStats).jobs += 1
      jobOp(e.jobId) = op
      e.stageIds.foreach(stageOp(_) = op)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobOp.remove(e.jobId).foreach(ended += _)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageOp.get(e.stageId).foreach { op =>
      val s = ops.getOrElseUpdate(op, new OpStats)
      s.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        s.executorCpuNs += m.executorCpuTime
        s.executorRunMs += m.executorRunTime
      }
      s.taskIntervals += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
      e.taskInfo.accumulables.foreach { a =>
        if (scanAccumulators.contains(a.id)) a.update.foreach {
          case n: Long => s.rowsScanned += n
          case _       => ()
        }
      }
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart          => synchronized(scans(s.sparkPlanInfo))
    case u: SparkListenerSQLAdaptiveExecutionUpdate => synchronized(scans(u.sparkPlanInfo))
    case _                                          => ()
  }

  private def scans(p: SparkPlanInfo): Unit = {
    if (p.nodeName.startsWith("InMemoryTableScan"))
      p.metrics.filter(_.name == "number of output rows").foreach(m => scanAccumulators += m.accumulatorId)
    p.children.foreach(scans)
  }
}

object SparkProbe {
  val Key = "utcqbench.op"
}

/** The distributed path, `spark_hz`: `UtcqSpark.compress` over a cached
  * `Dataset[UTraj]` (with its shuffle), then Spark range, where and when
  * queries over the cached rows. One round is one ingest job followed by a
  * batch of queries.
  */
final class SparkRounds(spark: SparkSession, d: Data, trajs: Dataset[UTraj],
    reference: Map[Long, Array[Byte]], qs: IndexedSeq[Query], truths: IndexedSeq[Any],
    dec: Map[Long, UTraj], probe: SparkProbe, tracer: Tracer, tally: Tally) {
  private val params = Inputs.params
  private val sc = spark.sparkContext
  private var rows: Option[Dataset[CompressedRow]] = None
  private var nextQuery, nextOp = 0

  var recording = false
  /** Fastest time of the ingest job and of each query over the measured rounds. */
  val ingestBest = new Fastest(1)
  val queryBest = new Fastest(qs.length)
  private val measuredRuns = Array.fill(qs.length)(0)
  /** Traced operations: (name, wall ns). */
  val tracedOps = ArrayBuffer[(String, Long)]()

  private def op[A](kind: String)(f: => A): (A, Long) = {
    val name = s"$kind-$nextOp"
    nextOp += 1
    sc.setLocalProperty(SparkProbe.Key, if (tracer.enabled) name else null)
    val (a, ns) = try Loop.timed(tracer.request("bench.op")(tracer.span(kind)(f)))
      finally sc.setLocalProperty(SparkProbe.Key, null)
    if (tracer.enabled) tracedOps += ((name, ns))
    (a, ns)
  }

  private def ingest(): Long = {
    val (fresh, ns) = op("spark.ingest") {
      val r = UtcqSpark.compress(spark, d.net, d.meta, params, trajs).persist()
      r.count()
      r
    }
    rows.foreach(_.unpersist(blocking = true))
    rows = Some(fresh)
    if (recording) ingestBest.record(0, ns)
    // Check: every job's blobs equal the local kernel's, checked by round trip.
    import spark.implicits._
    val got = fresh.map(r => (r.ct.id, r.ct.blob)).collect()
    tally.check("spark.ingest", got.length == reference.size &&
      got.forall { case (id, blob) => reference.get(id).exists(_.sameElements(blob)) },
      "spark ingest blobs differ from the local kernel's")
    ns
  }

  private def query(i: Int): Long = {
    val q = qs(i)
    val r = rows.get
    val (got, ns) = q match {
      case Where(id, t, a) => op("spark.query.where")(UtcqSpark.whereQuery(d.net, d.meta, params, r, id, t, a))
      case When(id, vs, ve, rd, a) =>
        op("spark.query.when")(UtcqSpark.whenQuery(d.net, d.meta, params, r, id, vs, ve, rd, a))
      case Range(re, tq, a) =>
        val (ids, ns) = op("spark.query.range")(UtcqSpark.rangeQuery(d.net, d.meta, params, r, re, tq, a))
        (ids.toSet, ns)
    }
    if (recording) {
      queryBest.record(i, ns)
      measuredRuns(i) += 1
    }
    Checks.answer(tally, s"spark.query.$i", d.net, d.grid, dec, q, got, truths(i))
    ns
  }

  /** Queries per round. */
  private val perRound = 12

  /** Whether every query of the set has run at least `n` times in measured rounds. */
  def everyQueryRan(n: Int): Boolean = measuredRuns.forall(_ >= n)

  def round(): Long = {
    var ns = ingest()
    (0 until perRound).foreach { _ =>
      ns += query(nextQuery % qs.length)
      nextQuery += 1
    }
    ns
  }

  /** Bytes of cached compressed rows. */
  def cachedBytes: Long = {
    val before = sc.getRDDStorageInfo.map(_.memSize).sum
    rows.foreach(_.unpersist(blocking = true))
    val after = sc.getRDDStorageInfo.map(_.memSize).sum
    before - after
  }

  /** Wait until the listener has seen every event posted so far: a
    * sentinel job's end arrives after all of them.
    */
  def drain(): Unit = {
    val name = "sentinel"
    sc.setLocalProperty(SparkProbe.Key, name)
    try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(SparkProbe.Key, null)
    val deadline = System.nanoTime() + 20e9.toLong
    while (!probe.hasEnded(name) && System.nanoTime() < deadline) Thread.sleep(10)
  }
}

object SparkRun {
  private val params = Inputs.params

  /** Trajectories in the Spark dataset. */
  val trajectories = 400
  /** The query set: 34 groups of (where, when, range), 102 queries, so
    * that the p90 of their times has ten beyond it. Every Spark query is a
    * job over all cached rows, whatever its type.
    */
  val queryGroups = 34

  /** Cores of the local master, and shuffle partitions. One: on a shared
    * host a job on two cores needs two quiet cores at once, and over five
    * seeds its times spread up to twice as wide as on one.
    */
  val cores = 1

  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("utcqbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.default.parallelism", cores.toLong)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", ".bench_build/spark-local")
      .config("spark.sql.warehouse.dir", ".bench_build/spark-warehouse")
      .getOrCreate()

  def run(cfg: Config, tracer: Tracer, tally: Tally): (Map[String, Double], Map[String, Double]) = {
    val (spark, sessionNs) = Loop.timed(session(cores))
    try {
      val probe = new SparkProbe
      spark.sparkContext.addSparkListener(probe)
      var cached: Option[Dataset[UTraj]] = None
      val (d, setupS) = Loop.setUp(3) {
        cached.foreach(_.unpersist(blocking = true))
        val d = Inputs.hz(cfg.seed, trajectories)
        val ds = spark.createDataset(d.trajs)(Encoders.product[UTraj]).cache()
        ds.count()
        cached = Some(ds)
        d
      }
      val trajs = cached.get
      val local = d.trajs
      // The local kernel's rows, checked by round trip: the reference for
      // every Spark job's blobs, and the ground truth's decompressed data.
      val rows = local.map { t =>
        val ct = Compressor.compress(d.meta, params, t).ct
        val (te, rt, nt) = StIU.buildFor(d.net, d.grid, d.meta, params, t, ct)
        CompressedRow(ct, te, rt, nt)
      }
      val storage = Storage.of(rows, local)
      val dec = rows.indices.map { i =>
        val t = Decompressor.decompress(d.meta, rows(i).ct)
        tally.roundTrip(s"spark.round_trip.${t.id}", Checks.roundTrip(params, local(i), t))
        t.id -> t
      }.toMap
      val qs = Inputs.queries(d.net, local, cfg.seed, queryGroups, "wnr")
      val truths = qs.map(Checks.expected(d.net, dec, _))
      val reference = rows.map(r => r.ct.id -> r.ct.blob).toMap
      val w = new SparkRounds(spark, d, trajs, reference, qs, truths, dec, probe, tracer, tally)
      Loop.warmUp(min = 2, minSeconds = 0, maxSeconds = 4, tol = 0.1)(() => w.round())
      w.recording = true
      val (plain, traced) = Loop.measure(cfg.seconds, min = 3, tracer, cfg.trace)(
        w.everyQueryRan(1))(() => w.round())
      val queryMs = w.queryBest.ms(qs.indices)
      val endToEnd = Map(
        "setup_s" -> setupS,
        "compress_ratio" -> storage.compressRatio,
        "stored_ratio" -> storage.storedRatio,
        "write_inst_per_s" -> Stats.perSecond(d.instances, w.ingestBest.totalNs),
        "read_per_s" -> Stats.perSecond(qs.length, w.queryBest.totalNs),
        "op_ms_p50" -> Stats.percentile(queryMs, 50),
        "op_ms_p90" -> Stats.percentile(queryMs, 90),
      )
      val layers =
        if (!cfg.trace) Map.empty[String, Double]
        else {
          w.drain()
          val ingests = w.tracedOps.filter(_._1.startsWith("spark.ingest")).toSeq
          val queries = w.tracedOps.filter(_._1.startsWith("spark.query")).toSeq
          def perOp(ops: Seq[(String, Long)])(f: (OpStats, Long) => Double): Double =
            if (ops.isEmpty) 0.0 else ops.map { case (n, ns) => f(probe.stats(n), ns) }.sum / ops.size
          val sparkLayer = Map(
            "spark.session_start_s" -> sessionNs / 1e9,
            "spark.ingest.wall_ms" -> perOp(ingests)((_, ns) => ns / 1e6),
            "spark.ingest.executor_cpu_ms" -> perOp(ingests)((s, _) => s.executorCpuNs / 1e6),
            "spark.ingest.executor_run_ms" -> perOp(ingests)((s, _) => s.executorRunMs.toDouble),
            "spark.ingest.tasks" -> perOp(ingests)((s, _) => s.tasks.toDouble),
            "spark.ingest.shuffle_write_bytes" -> perOp(ingests)((s, _) => s.shuffleWriteBytes.toDouble),
            "spark.query.jobs_per_q" -> perOp(queries)((s, _) => s.jobs.toDouble),
            "spark.query.tasks_per_q" -> perOp(queries)((s, _) => s.tasks.toDouble),
            "spark.query.rows_scanned_per_q" -> perOp(queries)((s, _) => s.rowsScanned.toDouble),
            "spark.query.executor_cpu_ms" -> perOp(queries)((s, _) => s.executorCpuNs / 1e6),
            "spark.query.driver_overhead_ms" -> perOp(queries)((s, ns) => math.max(0.0, ns / 1e6 - s.busyMs)),
            "spark.cached_bytes" -> w.cachedBytes.toDouble,
            "trace.overhead_pct" -> Loop.overheadPct(plain, traced),
          )
          tracer.enabled = true
          try Probe.ingest(d, tracer, tally) ++ sparkLayer
          finally tracer.enabled = false
        }
      (endToEnd, layers)
    } finally spark.stop()
  }
}
