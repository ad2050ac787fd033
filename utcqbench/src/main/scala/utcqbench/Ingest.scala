package utcqbench

import repro.core.{Compressor, Decompressor}
import repro.index.StIU
import repro.spark.UtcqSpark.CompressedRow
import scala.collection.mutable.ArrayBuffer

/** The write path, `ingest_hz`: every trajectory goes
  * through `Compressor.compress` → `StIU.buildFor`, each batch through
  * `StIU.assemble`, and every blob is read back with
  * `Decompressor.decompress` and checked by round trip. One round is one
  * pass over the dataset.
  */
final class Ingest(d: Data, tracer: Tracer, tally: Tally) {
  private val params = Inputs.params
  private val batch = 100

  var recording = false
  /** Fastest write (compress + buildFor) and read time of each trajectory,
    * and assembly time of each batch, over the measured rounds.
    */
  val write, read = new Fastest(d.trajs.length)
  val assemble = new Fastest((d.trajs.length + batch - 1) / batch)
  private var storage: Option[Storage] = None

  def storageFigures: Storage = storage.get

  def round(): Long = {
    var ingestNs, readNs = 0L
    val rows = ArrayBuffer[CompressedRow]()
    d.trajs.grouped(batch).zipWithIndex.foreach { case (group, b) =>
      val parts = group.zipWithIndex.map { case (t, j) =>
        val (ct, part, dec, writeNs, decNs) = tracer.request("bench.ingest") {
          val t0 = System.nanoTime()
          val ct = tracer.span("core.compress")(Compressor.compress(d.meta, params, t).ct)
          val part = tracer.span("index.build")(StIU.buildFor(d.net, d.grid, d.meta, params, t, ct))
          val t1 = System.nanoTime()
          val dec = tracer.span("core.decompress")(Decompressor.decompress(d.meta, ct))
          (ct, part, dec, t1 - t0, System.nanoTime() - t1)
        }
        ingestNs += writeNs
        readNs += decNs
        if (recording) {
          write.record(b * batch + j, writeNs)
          read.record(b * batch + j, decNs)
        }
        tally.roundTrip(s"ingest.round_trip.${t.id}", Checks.roundTrip(params, t, dec))
        if (storage.isEmpty) rows += CompressedRow(ct, part._1, part._2, part._3)
        part
      }
      val (index, ns) = Loop.timed(tracer.request("bench.ingest")(
        tracer.span("index.assemble")(StIU.assemble(d.grid, params.slotSeconds, parts))))
      ingestNs += ns
      if (recording) assemble.record(b, ns)
      tally.check(s"ingest.assemble.$b", index.temporal.keySet == group.map(_.id).toSet, "assembled index misses a trajectory")
    }
    if (storage.isEmpty) storage = Some(Storage.of(rows.toSeq, d.trajs))
    ingestNs + readNs
  }
}

object Ingest {

  /** Trajectories in the dataset; their 600 write times give the p90
    * sixty samples beyond it.
    */
  val trajectories = 600

  def run(cfg: Config, tracer: Tracer, tally: Tally): (Map[String, Double], Map[String, Double]) = {
    val (d, setupS) = Loop.setUp(5)(Inputs.hz(cfg.seed, trajectories))
    val w = new Ingest(d, tracer, tally)
    Loop.warmUp(min = 3, minSeconds = 1, maxSeconds = 3)(() => w.round())
    w.recording = true
    val (plain, traced) = Loop.measure(cfg.seconds, min = 8, tracer, cfg.trace)(true)(() => w.round())
    val st = w.storageFigures
    val writeMs = w.write.ms(d.trajs.indices)
    val endToEnd = Map(
      "setup_s" -> setupS,
      "compress_ratio" -> st.compressRatio,
      "stored_ratio" -> st.storedRatio,
      "write_inst_per_s" -> Stats.perSecond(d.instances, w.write.totalNs + w.assemble.totalNs),
      "read_per_s" -> Stats.perSecond(d.instances, w.read.totalNs),
      "op_ms_p50" -> Stats.percentile(writeMs, 50),
      "op_ms_p90" -> Stats.percentile(writeMs, 90),
    )
    val layers =
      if (!cfg.trace) Map.empty[String, Double]
      else {
        tracer.enabled = true
        try Probe.ingest(d, tracer, tally) + ("trace.overhead_pct" -> Loop.overheadPct(plain, traced))
        finally tracer.enabled = false
      }
    (endToEnd, layers)
  }
}
