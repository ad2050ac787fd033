package repro.baseline

import repro.core.{DatasetMeta, Sizes}
import repro.traj.{Instance, UTraj}
import repro.util.{BitVec, BitWriter}
import scala.collection.mutable

/** The TED baseline [40], adapted to uncertain trajectories per §6.1 of the
  * paper: every instance is compressed independently; probabilities use the
  * same PDDP codec as UTCQ; bitmap compression of T′ is omitted (T′ stays a
  * raw bit-string, hence its Table 8 ratio of 1).
  *
  * Components (§2.2–2.3):
  *  - E: start vertex + fixed-width outgoing-edge numbers, then the
  *    dataset-wide *matrix* stage — instances grouped by |E| into A×B code
  *    matrices and compressed with multiple bases: columns are partitioned
  *    (dynamic programming) into segments encoded at the width of their
  *    largest entry, exploiting that high bits are mostly 0. This stage is
  *    what forces TED to hold every E(·) in memory at once (the paper's
  *    memory-cost observation).
  *  - T: interval-run pairs (i, t_i): a pair per endpoint of each maximal
  *    run of equal sample intervals; i takes 12 bits, t_i 17 bits. Shared
  *    per uncertain trajectory.
  *  - D: PDDP at η_D (7 bits per relative distance at 1/128).
  *  - p: PDDP at η_p.
  */
object TedCompressor {

  /** One |E|-length group: the A×B matrix of edge codes packed with
    * multiple bases — every row is interpreted as a mixed-radix number
    * whose per-column base is (max column entry + 1), evaluated by Horner
    * with BigInteger arithmetic and stored in ⌈log2 Π bases⌉ bits. This is
    * TED's step iii: smaller column bases (high bits mostly 0) shrink the
    * product, and the per-row big-integer multiplication chain is the
    * matrix stage whose cost and memory footprint the paper measures.
    *
    * @param bases per-column base (≥ 1; base 1 columns carry no bits)
    * @param rows  row-major packed matrix, `rowBits` bits per row
    */
  final case class TedGroup(
      eLen: Int,
      bases: Array[Int],
      rows: BitVec,
      numRows: Int,
  ) {
    val rowBits: Int = TedCompressor.rowBitsFor(bases)

    def decodeRow(row: Int): Array[Int] = {
      var v = BigInt(0)
      if (rowBits > 0) {
        var i = 0
        val off = row * rowBits
        while (i < rowBits) { v = (v << 1) | (if (rows(off + i)) 1 else 0); i += 1 }
      }
      val out = new Array[Int](eLen)
      var c = eLen - 1
      while (c >= 0) {
        val b = bases(c)
        if (b > 1) {
          val (q, r) = v /% BigInt(b)
          out(c) = r.toInt
          v = q
        } else out(c) = 0
        c -= 1
      }
      out
    }
  }

  /** One compressed instance: E lives in `groups(groupIdx)` row `row`. */
  final case class TedInstance(
      groupIdx: Int,
      row: Int,
      sv: Int,
      tflags: Array[Boolean],  // raw bit-string (ratio 1 — bitmap compression omitted)
      distCodes: Array[Long],  // PDDP codes
      probCode: Long,
  )

  final case class TedTraj(
      id: Long,
      timePairs: IndexedSeq[(Int, Int)], // (index, timestamp) interval-run endpoints
      numSamples: Int,
      instances: IndexedSeq[TedInstance],
  )

  final case class TedDataset(
      meta: DatasetMeta,
      groups: IndexedSeq[TedGroup],
      trajs: IndexedSeq[TedTraj],
      sizes: Sizes,
  )

  /** Greedy interval-run representation of a time sequence (§2.2): keep
    * (0, t0) and, per maximal run of equal sample intervals, the endpoint
    * (i, t_i); omitted timestamps interpolate linearly.
    */
  def timePairs(times: Array[Int]): IndexedSeq[(Int, Int)] = {
    if (times.length == 1) return Vector((0, times(0)))
    val out = mutable.ArrayBuffer[(Int, Int)]((0, times(0)))
    var runStart = 0
    var i = 1
    while (i < times.length) {
      val d = times(runStart + 1) - times(runStart)
      // extend run while interval stays d
      if (times(i) - times(i - 1) != d) {
        // close previous run at i-1, start new run there
        out += ((i - 1, times(i - 1)))
        runStart = i - 1
      }
      i += 1
    }
    out += ((times.length - 1, times.last))
    out.toVector
  }

  /** Reconstruct a time sequence from its pairs. */
  def restoreTimes(pairs: IndexedSeq[(Int, Int)], n: Int): Array[Int] = {
    val out = new Array[Int](n)
    var k = 0
    while (k < pairs.length - 1) {
      val (i0, t0) = pairs(k)
      val (i1, t1) = pairs(k + 1)
      val steps = i1 - i0
      var j = 0
      while (j <= steps) {
        out(i0 + j) = t0 + (if (steps == 0) 0 else math.round(j.toDouble * (t1 - t0) / steps).toInt)
        j += 1
      }
      k += 1
    }
    if (pairs.length == 1) out(pairs.head._1) = pairs.head._2
    out
  }

  /** Bits per packed row: the bit length of (prod bases - 1), 0 when the
    * product is 1 (all columns constant zero).
    */
  private[baseline] def rowBitsFor(bases: Array[Int]): Int = {
    var prod = BigInt(1)
    bases.foreach(b => if (b > 1) prod *= b)
    if (prod == BigInt(1)) 0 else (prod - 1).bitLength
  }

  /** Pack one row as a mixed-radix BigInteger (Horner evaluation). */
  private[baseline] def packRow(edges: Array[Int], bases: Array[Int]): BigInt = {
    var v = BigInt(0)
    var c = 0
    while (c < edges.length) {
      val b = bases(c)
      if (b > 1) v = v * b + edges(c)
      else require(edges(c) == 0, "base-1 column must be all zeros")
      c += 1
    }
    v
  }

  /** Compress a whole dataset. Unlike UTCQ's one-trajectory-at-a-time
    * streaming, the matrix stage must first materialize every edge sequence
    * (the source of TED's memory footprint).
    */
  def compress(meta: DatasetMeta, trajs: Seq[UTraj]): TedDataset = {
    val pddpD = meta.pddpD
    val pddpP = meta.pddpP

    // ---- stage 1: load all E(·), group by length -----------------------
    final case class Slot(trajIdx: Int, instIdx: Int, edges: Array[Int])
    val slots = mutable.ArrayBuffer[Slot]()
    trajs.zipWithIndex.foreach { case (t, ti) =>
      t.instances.zipWithIndex.foreach { case (in, ii) => slots += Slot(ti, ii, in.edges) }
    }
    val byLen = slots.zipWithIndex.groupBy(_._1.edges.length)

    var szE = 0L
    val groups = mutable.ArrayBuffer[TedGroup]()
    val slotToGroup = new Array[(Int, Int)](slots.length) // slot idx -> (group, row)

    byLen.toSeq.sortBy(_._1).foreach { case (eLen, members) =>
      val a = members.length
      // Per-column base = max entry + 1 ("the highest bit of each code has
      // a high probability of being 0" => small bases).
      val bases = new Array[Int](eLen)
      members.foreach { case (s, _) =>
        var c = 0
        while (c < eLen) {
          if (s.edges(c) + 1 > bases(c)) bases(c) = s.edges(c) + 1
          c += 1
        }
      }
      val rowBits = rowBitsFor(bases)
      val w = new BitWriter
      members.foreach { case (s, _) =>
        val v = packRow(s.edges, bases)
        // fixed-width big-endian emission of the packed row
        var i = rowBits - 1
        while (i >= 0) { w.writeBit(v.testBit(i)); i -= 1 }
      }
      val g = TedGroup(eLen, bases, w.toBitVec, a)
      members.zipWithIndex.foreach { case ((_, slotIdx), row) => slotToGroup(slotIdx) = (groups.length, row) }
      groups += g
      szE += g.rows.length.toLong + eLen.toLong * 4 + 16 // per-column base headers + eLen
    }

    // ---- stage 2: per-trajectory components ----------------------------
    var szT = 0L; var szD = 0L; var szTf = 0L; var szP = 0L; var szSv = 0L; var szOv = 0L
    var slotCursor = 0
    val outTrajs = trajs.zipWithIndex.map { case (t, _) =>
      val pairs = timePairs(t.times)
      szT += pairs.length.toLong * (12 + 17)
      val insts = t.instances.zipWithIndex.map { case (in, _) =>
        val (g, row) = slotToGroup(slotCursor)
        slotCursor += 1
        szSv += meta.svBits
        szTf += in.tflags.length.toLong
        szD += in.dists.length.toLong * pddpD.bits
        szP += pddpP.bits
        szOv += 16 + 16 // (group, row) addressing of the matrix stage
        TedInstance(g, row, in.sv, in.tflags.clone(), in.dists.map(pddpD.quantize), pddpP.quantize(in.prob))
      }.toIndexedSeq
      TedTraj(t.id, pairs, t.numSamples, insts)
    }.toIndexedSeq

    val sizes = Sizes(szT, szE, szD, szTf, szP, szSv, szOv)
    TedDataset(meta, groups.toIndexedSeq, outTrajs, sizes)
  }

  /** Decompress one instance back to the improved-TED in-memory form. */
  def decompressInstance(ds: TedDataset, ti: TedInstance): Instance = {
    val edges = ds.groups(ti.groupIdx).decodeRow(ti.row)
    Instance(
      ds.meta.pddpP.dequantize(ti.probCode),
      ti.sv,
      edges,
      ti.tflags.clone(),
      ti.distCodes.map(ds.meta.pddpD.dequantize))
  }

  def decompressTraj(ds: TedDataset, tt: TedTraj): UTraj =
    UTraj(tt.id, restoreTimes(tt.timePairs, tt.numSamples), ds.meta.ts,
      tt.instances.map(decompressInstance(ds, _)).toArray)
}
