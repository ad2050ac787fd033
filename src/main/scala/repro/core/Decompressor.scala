package repro.core

import repro.traj.{Instance, UTraj}
import repro.util.{BitReader, Bits}

/** Full and partial decompression of [[CompressedTraj]] blobs (§5.1).
  *
  * [[layout]] is the one parse of a blob into the offsets a reader starts
  * from and the bits each component takes (the Table 8 accounting); with
  * [[Compressor]], the writer, this is the only code that knows the blob's
  * bit layout. Every partial decode starts at an offset of that layout:
  * times from any sample's Δ code ([[timesFrom]]), a reference's
  * fixed-width components from its own offsets, and a non-reference's
  * three factor lists from one offset, in one sequential read. The StIU
  * stores no offsets, so §5.1's flag and original arrays (ω, γ), which
  * only located the paper's d.pos, are not built. A non-reference is
  * always decoded whole, from its reference and its factor lists; the
  * Eq. 4–6 partial decode of a non-reference's γ is not implemented,
  * because no query path starts mid-way through a non-reference.
  *
  * Every decoder reads its widths (symbol, vertex and distance-code widths,
  * Ts) from the blob's own `ct.meta`, the one that wrote it.
  */
object Decompressor {

  // ------------------------------------------------------------- layout

  /** One sequential parse of `ct`'s blob, with the decoders below, into the
    * offsets its readers start from (t0, each Δ code, each reference's SV,
    * E, T′ and D, each non-reference's Com_E) and the bit count ([[Sizes]])
    * of every component, each counted from the reader's position. Fails
    * with an `IllegalArgumentException` naming the trajectory unless the
    * parse ends exactly at `blobBits` and every index it reads is in range.
    */
  def layout(ct: CompressedTraj): Layout =
    try parseLayout(ct)
    catch {
      case e: IllegalArgumentException => throw new IllegalArgumentException(
        s"trajectory ${ct.id}: blob of ${ct.blobBits} bits does not parse: ${e.getMessage}", e)
    }

  private def parseLayout(ct: CompressedTraj): Layout = {
    val meta = ct.meta
    val pddpD = meta.pddpD
    val pddpP = meta.pddpP
    val r = new BitReader(ct.bits)
    val n = r.readBits(Compressor.HeaderBits).toInt
    val numInsts = r.readBits(Compressor.HeaderBits).toInt
    val numRefs = r.readBits(Compressor.HeaderBits).toInt
    require(n == ct.n && 0 < numRefs && numRefs <= numInsts, s"header n=$n, N=$numInsts, R=$numRefs")

    val tOff = r.pos
    r.readBits(meta.t0Bits)
    val deltaOffs = Array.fill(n - 1) { val at = r.pos; ExpGolomb.decode(r); at }
    val tBits = r.pos - tOff

    val origIdxBits = Bits.widthFor(numInsts.toLong)
    var eBits, tfBits, dBits = 0L
    val refs = Array.fill(numRefs) {
      val origIdx = r.readBits(origIdxBits).toInt
      val eLenOff = r.pos
      val eLen = ExpGolomb.decodeUnsigned(r)
      val svOff = r.pos
      val eOff = svOff + meta.svBits
      val tfOff = eOff + eLen.toLong * meta.symBits
      val dOff = tfOff + math.max(0, eLen - 2)
      val dEnd = dOff + n.toLong * pddpD.bits
      require(dEnd <= ct.blobBits, s"reference of $eLen entries ends past the blob")
      r.seek(dEnd.toInt)
      eBits += svOff - eLenOff + tfOff - eOff
      tfBits += dOff - tfOff
      dBits += dEnd - dOff
      RefLayout(origIdx, eLen, svOff, eOff, tfOff.toInt, dOff.toInt, pddpP.decode(r))
    }

    val refSlotBits = Bits.widthFor(math.max(1, numRefs).toLong)
    val nonRefs = Array.fill(numInsts - numRefs) {
      val origIdx = r.readBits(origIdxBits).toInt
      val refSlot = r.readBits(refSlotBits).toInt
      require(refSlot < numRefs, s"reference slot $refSlot of $numRefs")
      val prob = pddpP.decode(r)
      val refLen = refs(refSlot).eLen
      val comEOff = r.pos
      val factorOffs = Array.newBuilder[Int]
      val eFactors = RefFactors.decodeE(RefFactors.ELayout(refLen, meta.symBits), r, factorOffs += _)
      val tfAt = r.pos
      RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), r)
      val dAt = r.pos
      RefFactors.decodeD(RefFactors.DLayout(n, pddpD.bits), r)
      eBits += tfAt - comEOff
      tfBits += dAt - tfAt
      dBits += r.pos - dAt
      NonRefLayout(origIdx, refSlot, comEOff, prob,
        factorOffs.result(), eFactors.scanLeft(0)(_ + _.entries).init.toArray)
    }

    require(r.pos == ct.blobBits, s"the parse ends at bit ${r.pos}")
    val order = (refs.map(_.origIdx) ++ nonRefs.map(_.origIdx)).sorted
    require(order.indices.forall(i => order(i) == i), "the instance indices are not a permutation of 0..N−1")
    val sizes = Sizes(t = tBits, e = eBits, d = dBits, tf = tfBits,
      p = numInsts.toLong * pddpP.bits, sv = numRefs.toLong * meta.svBits,
      overhead = 3L * Compressor.HeaderBits + numInsts.toLong * origIdxBits + (numInsts - numRefs).toLong * refSlotBits)
    Layout(tOff, deltaOffs, refs, nonRefs, sizes)
  }

  // -------------------------------------------------------------- times

  /** Decode the full time sequence: [[timesFrom]] sample 0, whose
    * timestamp t0 heads T̂.
    */
  def times(ct: CompressedTraj): Array[Int] =
    timesFrom(ct, 0, ct.bits.readBits(ct.tOff, ct.meta.t0Bits).toInt)

  /** Decode timestamps from sample `fromIdx` on, starting mid-stream at the
    * layout's offset of sample `fromIdx`'s Δ code (the paper's t.pos);
    * `tStart` is the timestamp at `fromIdx` (a temporal entry's t.start).
    * Decoding stops at the first sample after `fromIdx` whose timestamp
    * reaches `until`, or at the last sample; by default it decodes the
    * whole suffix. Cost is proportional to the decoded part only.
    */
  def timesFrom(ct: CompressedTraj, fromIdx: Int, tStart: Int, until: Int = Int.MaxValue): Array[Int] = {
    val out = new Array[Int](math.max(1, ct.n - fromIdx))
    out(0) = tStart
    var k = 0
    if (out.length > 1) {
      val r = new BitReader(ct.bits, ct.deltaOffs(fromIdx))
      val ts = ct.meta.ts
      do { out(k + 1) = Siar.next(out(k), ExpGolomb.decode(r), ts); k += 1 }
      while (k + 1 < out.length && out(k) < until)
    }
    if (k + 1 == out.length) out else java.util.Arrays.copyOf(out, k + 1)
  }

  // --------------------------------------------------------- references

  def refSv(ct: CompressedTraj, slot: Int): Int =
    ct.bits.readBits(ct.refs(slot).svOff, ct.meta.svBits).toInt

  def refEdges(ct: CompressedTraj, slot: Int): Array[Int] = {
    val rl = ct.refs(slot)
    val symBits = ct.meta.symBits
    val out = new Array[Int](rl.eLen)
    var i = 0
    while (i < rl.eLen) {
      out(i) = ct.bits.readBits(rl.eOff + i * symBits, symBits).toInt
      i += 1
    }
    out
  }

  /** Stored T′ of a reference (first/last bits omitted). */
  def refStoredTf(ct: CompressedTraj, slot: Int): Array[Boolean] = {
    val rl = ct.refs(slot)
    val bits = ct.bits
    val out = new Array[Boolean](math.max(0, rl.eLen - 2))
    var i = 0
    while (i < out.length) { out(i) = bits(rl.tfOff + i); i += 1 }
    out
  }

  def refTf(ct: CompressedTraj, slot: Int): Array[Boolean] =
    Compressor.restoreTf(refStoredTf(ct, slot), ct.refs(slot).eLen)

  /** The n fixed-width D codes of a reference, as stored. */
  private def refDCodes(ct: CompressedTraj, slot: Int): Array[Long] = {
    val dOff = ct.refs(slot).dOff
    val bits = ct.meta.pddpD.bits
    val out = new Array[Long](ct.n)
    var i = 0
    while (i < out.length) { out(i) = ct.bits.readBits(dOff + i * bits, bits); i += 1 }
    out
  }

  /** Relative distances of D codes under the blob's η_D. */
  private def dists(ct: CompressedTraj, codes: Array[Long]): Array[Double] = {
    val pddpD = ct.meta.pddpD
    val out = new Array[Double](codes.length)
    var i = 0
    while (i < out.length) { out(i) = pddpD.dequantize(codes(i)); i += 1 }
    out
  }

  def refDists(ct: CompressedTraj, slot: Int): Array[Double] = dists(ct, refDCodes(ct, slot))

  def refInstance(ct: CompressedTraj, slot: Int): Instance = {
    val rl = ct.refs(slot)
    named(ct)(Instance(rl.prob, refSv(ct, slot), refEdges(ct, slot), refTf(ct, slot), refDists(ct, slot)))
  }

  /** `in`, with the `IllegalArgumentException` of an instance whose decoded
    * E, T′ and D do not align (a corrupt blob) naming the trajectory.
    */
  private def named(ct: CompressedTraj)(in: => Instance): Instance =
    try in
    catch { case e: IllegalArgumentException => throw new IllegalArgumentException(s"trajectory ${ct.id}: ${e.getMessage}", e) }

  // ----------------------------------------------------- non-references

  /** Non-reference `k`, from one sequential read of its Com_E, Com_T′ and
    * Com_D (in blob order, from `comEOff`) against its reference.
    */
  def nonRefInstance(ct: CompressedTraj, k: Int): Instance = {
    val nl = ct.nonRefs(k)
    val slot = nl.refSlot
    val refLen = ct.refs(slot).eLen
    val r = new BitReader(ct.bits, nl.comEOff)
    val eFactors = RefFactors.decodeE(RefFactors.ELayout(refLen, ct.meta.symBits), r)
    val tfCom = RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), r)
    val dFactors = RefFactors.decodeD(RefFactors.DLayout(ct.n, ct.meta.pddpD.bits), r)
    val edges = RefFactors.reconstructE(refEdges(ct, slot), eFactors)
    val tf = Compressor.restoreTf(RefFactors.reconstructTf(refStoredTf(ct, slot), tfCom), edges.length)
    val codes = RefFactors.reconstructD(refDCodes(ct, slot), dFactors)
    named(ct)(Instance(nl.prob, refSv(ct, slot), edges, tf, dists(ct, codes)))
  }

  /** Full decompression: the uncertain trajectory with instances back in
    * their original order (probabilities and distances η-rounded). `meta`
    * must be the [[DatasetMeta]] the blob was written with (`ct.meta`);
    * otherwise this fails with an `IllegalArgumentException` naming the
    * trajectory.
    */
  def decompress(meta: DatasetMeta, ct: CompressedTraj): UTraj = {
    ct.requireMeta(meta)
    val insts = new Array[Instance](ct.numInstances)
    ct.refs.indices.foreach(s => insts(ct.refs(s).origIdx) = refInstance(ct, s))
    ct.nonRefs.indices.foreach(k => insts(ct.nonRefs(k).origIdx) = nonRefInstance(ct, k))
    UTraj(ct.id, times(ct), meta.ts, insts)
  }
}
