package utcqbench

import java.io.{ObjectOutputStream, OutputStream}
import repro.core._
import repro.index.StIU
import repro.spark.UtcqSpark.CompressedRow
import repro.traj.UTraj
import repro.util.{BitReader, BitWriter}
import scala.collection.mutable
import scala.util.Random

/** Storage figures of one compressed dataset (Table 8 accounting). */
final case class Storage(originalBits: Long, blobBits: Long, rowBits: Long) {
  /** Table 8 "Total": original bits ÷ blob bits. */
  def compressRatio: Double = originalBits.toDouble / blobBits
  /** Original bits ÷ bits of the serialized rows the Spark path carries. */
  def storedRatio: Double = originalBits.toDouble / rowBits
}

object Storage {

  /** Figures of `rows` compressed from `origs`. A row is a [[CompressedRow]]
    * (blob, layout cache and inline StIU entries); its size is that of its
    * Java serialization, all rows in one stream so that class descriptors
    * count once.
    */
  def of(rows: Seq[CompressedRow], origs: Seq[UTraj]): Storage = {
    var bytes = 0L
    val out = new ObjectOutputStream(new OutputStream {
      override def write(b: Int): Unit = bytes += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = bytes += len
    })
    rows.foreach(out.writeObject)
    out.close()
    Storage(origs.map(Sizes.original(_).total).sum, rows.map(_.ct.blobBits.toLong).sum, 8 * bytes)
  }
}

/** Per-layer probes of the traced run. Each calls the program's public
  * entry points one at a time under spans; none of them is timed for an
  * end-to-end metric.
  */
object Probe {

  private def ms(ns: Double): Double = ns / 1e6

  /** Write and read path over `d`, call by call. Pivot selection, the
    * score matrix and `RefSelect` run on the inputs and RNG seed the
    * compressor uses, so their spans split the compressor's time; encoding
    * is the rest.
    */
  def ingest(d: Data, tracer: Tracer, tally: Tally): Map[String, Double] = {
    val params = Inputs.params
    val first = tracer.spans.size
    val parts = mutable.ArrayBuffer[(IndexedSeq[StIU.TemporalEntry], IndexedSeq[StIU.RefTuple], IndexedSeq[StIU.NonRefTuple])]()
    val cts = mutable.ArrayBuffer[CompressedTraj]()
    var sizes = Sizes.zero
    var refs, cacheBits = 0L
    d.trajs.foreach { t =>
      val (a, res, part, dec) = tracer.request("bench.probe") {
        val rnd = new Random(params.seed * 31 + t.id)
        val (_, coms) = tracer.span("core.pivots")(
          Pivots.selectPivots(t.instances.map(_.edges), params.numPivots, rnd))
        val sm = tracer.span("core.score_matrix")(
          Pivots.scoreMatrix(t.instances.map(_.prob), t.instances.map(_.sv), coms))
        val a = tracer.span("core.refselect")(RefSelect.select(sm))
        val res = tracer.span("core.compress")(Compressor.compress(d.meta, params, t))
        val part = tracer.span("index.build")(StIU.buildFor(d.net, d.grid, d.meta, params, t, res.ct))
        val dec = tracer.span("core.decompress")(Decompressor.decompress(d.meta, res.ct))
        (a, res, part, dec)
      }
      tally.check(s"probe.refselect.${t.id}", a == res.assignment, s"trajectory ${t.id}: the probe's reference selection differs from the compressor's")
      tally.roundTrip(s"probe.round_trip.${t.id}", Checks.roundTrip(params, t, dec))
      parts += part
      cts += res.ct
      sizes = sizes + res.ct.sizes
      refs += res.ct.refs.length
      cacheBits += Checks.layoutCacheBits(res.ct)
    }
    val index = tracer.request("bench.probe")(
      tracer.span("index.assemble")(StIU.assemble(d.grid, params.slotSeconds, parts.toSeq)))
    val spans = tracer.spans.drop(first)
    def mean(name: String) = Spans.meanOf(spans, name)
    val (piv, pivCpu) = mean("core.pivots")
    val (sm, smCpu) = mean("core.score_matrix")
    val (rs, rsCpu) = mean("core.refselect")
    val (cmp, cmpCpu) = mean("core.compress")
    val (dec, decCpu) = mean("core.decompress")
    val (bld, bldCpu) = mean("index.build")
    val (asm, asmCpu) = mean("index.assemble")
    val inst = d.instances.toDouble
    val n = d.trajs.size.toDouble
    val (write, read) = bitIo(cts.toSeq, tracer)
    Map(
      "core.pivots_ms" -> ms(piv), "core.pivots_busy_ms" -> ms(pivCpu),
      "core.score_matrix_ms" -> ms(sm), "core.score_matrix_busy_ms" -> ms(smCpu),
      "core.refselect_ms" -> ms(rs), "core.refselect_busy_ms" -> ms(rsCpu),
      "core.encode_ms" -> ms(cmp - piv - sm - rs), "core.encode_busy_ms" -> ms(cmpCpu - pivCpu - smCpu - rsCpu),
      "core.compress_wait_ms" -> ms(math.max(0.0, cmp - cmpCpu)),
      "core.decompress_ms" -> ms(dec), "core.decompress_busy_ms" -> ms(decCpu),
      "core.blob_bits_per_inst" -> sizes.total / inst,
      "core.bits_per_inst_t" -> sizes.t / inst, "core.bits_per_inst_e" -> sizes.e / inst,
      "core.bits_per_inst_d" -> sizes.d / inst, "core.bits_per_inst_tf" -> sizes.tf / inst,
      "core.bits_per_inst_p" -> sizes.p / inst, "core.bits_per_inst_sv" -> sizes.sv / inst,
      "core.bits_per_inst_overhead" -> sizes.overhead / inst,
      "core.refs_per_traj" -> refs / n,
      "core.layout_cache_bits_per_inst" -> cacheBits / inst,
      "util.write_mbit_per_s" -> write, "util.read_mbit_per_s" -> read,
      "index.build_ms" -> ms(bld), "index.build_busy_ms" -> ms(bldCpu),
      "index.assemble_ms" -> ms(asm), "index.assemble_busy_ms" -> ms(asmCpu),
      "index.size_bits_per_inst" -> index.sizeBits / inst,
      "index.temporal_per_traj" -> parts.map(_._1.size).sum / n,
      "index.ref_tuples_per_traj" -> parts.map(_._2.size).sum / n,
      "index.nonref_tuples_per_traj" -> parts.map(_._3.size).sum / n,
    )
  }

  /** Field widths the bit probe cycles through: a flag, an edge code, a
    * PDDP distance and probability, and wider offsets and factor fields.
    */
  private val widths = Array(1, 3, 7, 9, 12, 16)

  /** `BitReader` and `BitWriter` throughput over the run's own blobs, in
    * Mbit/s: median of five passes, each reading every blob field by field
    * and then writing the same fields back.
    */
  private def bitIo(cts: Seq[CompressedTraj], tracer: Tracer): (Double, Double) = {
    val vecs = cts.map(_.bits)
    val totalBits = vecs.map(_.length.toLong).sum
    val fields = vecs.map { v =>
      val ws = mutable.ArrayBuffer[Int]()
      var left = v.length
      var k = 0
      while (left > 0) { val w = math.min(widths(k % widths.length), left); ws += w; left -= w; k += 1 }
      ws.toArray
    }
    val values = fields.map(f => new Array[Long](f.length))
    val reads, writes = mutable.ArrayBuffer[Double]()
    (0 until 5).foreach { _ =>
      tracer.request("bench.probe") {
        val t0 = System.nanoTime()
        tracer.span("util.read") {
          vecs.indices.foreach { b =>
            val r = new BitReader(vecs(b))
            val (f, out) = (fields(b), values(b))
            var i = 0
            while (i < f.length) { out(i) = r.readBits(f(i)); i += 1 }
          }
        }
        val t1 = System.nanoTime()
        tracer.span("util.write") {
          vecs.indices.foreach { b =>
            val w = new BitWriter
            val (f, in) = (fields(b), values(b))
            var i = 0
            while (i < f.length) { w.writeBits(in(i), f(i)); i += 1 }
          }
        }
        val t2 = System.nanoTime()
        reads += totalBits * 1e3 / (t1 - t0)
        writes += totalBits * 1e3 / (t2 - t1)
      }
    }
    (Stats.median(writes.toSeq), Stats.median(reads.toSeq))
  }

  /** Query-layer counts over the query set, from `QueryEngine.stats`
    * differences around each call and from the index. Exact counts: they
    * repeat on the same seed.
    */
  def queries(engine: QueryEngine, qs: Seq[Query]): Map[String, Double] = {
    val s = engine.stats
    def snap = Array(s.lemma1Prunes, s.lemma2Contained, s.lemma2Disjoint, s.lemma3EarlyAccepts,
      s.lemma4Prunes, s.exactChecks, s.instanceDecompressions).map(_.toLong)
    val sums = mutable.Map[String, Array[Long]]()
    var candidates, fallbacks = 0L
    qs.foreach { q =>
      val before = snap
      val kind = q match {
        case Where(id, t, a) => engine.where(id, t, a); "where"
        case When(id, vs, ve, rd, a) =>
          engine.when(id, vs, ve, rd, a)
          val x = engine.net.xs(vs) + rd * (engine.net.xs(ve) - engine.net.xs(vs))
          val y = engine.net.ys(vs) + rd * (engine.net.ys(ve) - engine.net.ys(vs))
          val cell = engine.index.grid.cellOf(x, y)
          if (engine.index.refTuples.getOrElse((id, cell), Vector.empty).isEmpty) fallbacks += 1
          "when"
        case Range(re, tq, a) =>
          engine.range(re, tq, a)
          candidates += engine.index.bySlot.getOrElse(tq / engine.index.slotSeconds, Vector.empty).size
          "range"
      }
      val acc = sums.getOrElseUpdate(kind, new Array[Long](7))
      val after = snap
      acc.indices.foreach(i => acc(i) += after(i) - before(i))
    }
    def count(kind: String) = qs.count {
      case _: Where => kind == "where"
      case _: When  => kind == "when"
      case _: Range => kind == "range"
    }.toDouble
    val (nw, nn, nr) = (count("where"), count("when"), count("range"))
    val r = sums.getOrElse("range", new Array[Long](7))
    val w = sums.getOrElse("when", new Array[Long](7))
    val h = sums.getOrElse("where", new Array[Long](7))
    Map(
      "query.range.candidates_per_q" -> candidates / nr,
      "query.range.lemma4_prune_frac" -> (if (candidates == 0) 0.0 else r(4).toDouble / candidates),
      "query.range.decoded_inst_per_q" -> r(6) / nr,
      "query.range.lemma2_contained_per_q" -> r(1) / nr,
      "query.range.lemma2_disjoint_per_q" -> r(2) / nr,
      "query.range.lemma3_accepts_per_q" -> r(3) / nr,
      "query.range.exact_checks_per_q" -> r(5) / nr,
      "query.when.lemma1_prunes_per_q" -> w(0) / nn,
      "query.when.decoded_inst_per_q" -> w(6) / nn,
      "query.when.neighbour_fallback_frac" -> fallbacks / nn,
      "query.where.decoded_inst_per_q" -> h(6) / nw,
    )
  }
}
