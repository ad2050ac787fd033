package utcqbench

import repro.core.{CompressedTraj, Compressor, Decompressor, QueryEngine}
import repro.index.StIU
import repro.spark.UtcqSpark.CompressedRow
import repro.traj.UTraj

/** A compressed, indexed store of a dataset and the engine over it. */
final case class Store(d: Data, cts: IndexedSeq[CompressedTraj],
    parts: IndexedSeq[(IndexedSeq[StIU.TemporalEntry], IndexedSeq[StIU.RefTuple], IndexedSeq[StIU.NonRefTuple])],
    engine: QueryEngine, writeNs: IndexedSeq[Long], assembleNs: Long)

/** The read path, `query_hz`: where, when and range queries interleaved on
  * one `QueryEngine` over a pre-built store. One round is one pass over the
  * query set; every answer is checked against `GroundTruth` on the
  * decompressed data.
  */
final class Queries(s: Store, qs: IndexedSeq[Query], truths: IndexedSeq[Any],
    dec: Map[Long, UTraj], tracer: Tracer, tally: Tally) {
  private val e = s.engine

  var recording = false
  /** Fastest time of each query over the measured rounds. */
  val best = new Fastest(qs.length)

  def round(): Long = {
    var total = 0L
    var i = 0
    while (i < qs.length) {
      val q = qs(i)
      val (got, ns) = tracer.request("bench.query")(Loop.timed(q match {
        case Where(id, t, a)          => tracer.span("query.where")(e.where(id, t, a))
        case When(id, vs, ve, rd, a)  => tracer.span("query.when")(e.when(id, vs, ve, rd, a))
        case Range(re, tq, a)         => tracer.span("query.range")(e.range(re, tq, a))
      }))
      total += ns
      if (recording) best.record(i, ns)
      Checks.answer(tally, s"query.$i", s.d.net, s.d.grid, dec, q, got, truths(i))
      i += 1
    }
    total
  }
}

object Queries {
  private val params = Inputs.params

  /** Trajectories in the store. */
  val storeSize = 600
  /** Set-ups per run; `setup_s` is their median. */
  val setUps = 5
  /** The query set: 1,000 groups of one range query and ten where and
    * thirty when queries. A range query costs a fraction of a millisecond,
    * where and when a few microseconds, so range still takes a large share
    * of a pass. The many distinct when queries give the rare `when` false
    * negative (a few in 10,000 on HZ) room to show on every seed.
    */
  val queryGroups = 1000
  val pattern: String = "r" + "wnnn" * 10

  /** Compress and index every trajectory, timing each one's compress +
    * buildFor, and assemble the index.
    */
  def build(d: Data): Store = {
    val built = d.trajs.map { t =>
      Loop.timed {
        val ct = Compressor.compress(d.meta, params, t).ct
        (ct, StIU.buildFor(d.net, d.grid, d.meta, params, t, ct))
      }
    }
    val (cts, parts) = built.map(_._1).unzip
    val (index, assembleNs) = Loop.timed(StIU.assemble(d.grid, params.slotSeconds, parts))
    Store(d, cts, parts, new QueryEngine(d.net, d.meta, index, cts.map(ct => ct.id -> ct).toMap),
      built.map(_._2), assembleNs)
  }

  def run(cfg: Config, tracer: Tracer, tally: Tally): (Map[String, Double], Map[String, Double]) = {
    // The write rate is that of the store builds, each trajectory at its
    // fastest: the set-up builds, which run in a JVM still compiling, and
    // rebuilds for 4 s before the query passes and 1.5 s after them. With
    // 1.5 s before, the rate spread 23 % over ten seeds.
    val write = new Fastest(storeSize)
    val assemble = new Fastest(1)
    def record(s: Store): Store = {
      s.writeNs.indices.foreach(i => write.record(i, s.writeNs(i)))
      assemble.record(0, s.assembleNs)
      s
    }
    val (s, setupS) = Loop.setUp(setUps)(record(build(Inputs.hz(cfg.seed, storeSize))))
    val d = s.d
    def rebuild(seconds: Double): Unit = {
      val until = System.nanoTime() + (seconds * 1e9).toLong
      while (System.nanoTime() < until) record(build(d))
    }
    rebuild(4)
    val dec = d.trajs.indices.map { i =>
      val t = Decompressor.decompress(d.meta, s.cts(i))
      tally.roundTrip(s"store.round_trip.${t.id}", Checks.roundTrip(params, d.trajs(i), t))
      t.id -> t
    }.toMap
    val storage = Storage.of(s.cts.zip(s.parts).map { case (ct, (te, rt, nt)) => CompressedRow(ct, te, rt, nt) }, d.trajs)
    val qs = Inputs.queries(d.net, d.trajs, cfg.seed, queryGroups, pattern)
    val truths = qs.map(Checks.expected(d.net, dec, _))
    val w = new Queries(s, qs, truths, dec, tracer, tally)
    Loop.warmUp(min = 2, minSeconds = 1, maxSeconds = 3)(() => w.round())
    w.recording = true
    val (plain, traced) = Loop.measure(cfg.seconds, min = 8, tracer, cfg.trace)(true)(() => w.round())
    rebuild(1.5)
    val rangeMs = w.best.ms(qs.indices.filter(qs(_).isInstanceOf[Range]))
    val endToEnd = Map(
      "setup_s" -> setupS,
      "compress_ratio" -> storage.compressRatio,
      "stored_ratio" -> storage.storedRatio,
      "write_inst_per_s" -> Stats.perSecond(s.d.instances, write.totalNs + assemble.totalNs),
      "read_per_s" -> Stats.perSecond(qs.length, w.best.totalNs),
      "op_ms_p50" -> Stats.percentile(rangeMs, 50),
      "op_ms_p90" -> Stats.percentile(rangeMs, 90),
    )
    val layers =
      if (!cfg.trace) Map.empty[String, Double]
      else {
        val spans = tracer.spans
        def mean(name: String) = Spans.meanOf(spans, name)
        val (wh, whCpu) = mean("query.where")
        val (wn, wnCpu) = mean("query.when")
        val (rg, rgCpu) = mean("query.range")
        tracer.enabled = true
        try Probe.ingest(d, tracer, tally) ++ Probe.queries(s.engine, qs) ++ Map(
          "query.where_us" -> wh / 1e3, "query.where_busy_us" -> whCpu / 1e3,
          "query.when_us" -> wn / 1e3, "query.when_busy_us" -> wnCpu / 1e3,
          "query.range_ms" -> rg / 1e6, "query.range_busy_ms" -> rgCpu / 1e6,
          "trace.overhead_pct" -> Loop.overheadPct(plain, traced))
        finally tracer.enabled = false
      }
    (endToEnd, layers)
  }
}
