package repro.core

import repro.traj.{Instance, UTraj}
import repro.util.{BitReader, Bits}

/** Full and partial decompression of [[CompressedTraj]] blobs (§5.1).
  *
  * [[layout]] is the one parse of a blob into the offsets a reader starts
  * from and the bits each component takes (the Table 8 accounting); with
  * [[Compressor]], the writer, this is the only code that knows the blob's
  * bit layout. Every partial decode starts at an offset of that layout:
  * times from any sample's Δ code ([[timesFrom]]), a reference's SV, E,
  * stored T′ and D from its SV offset ([[refInstance]]), and a
  * non-reference's three factor lists from one offset, each in one
  * sequential read. The StIU stores no offsets, so §5.1's flag and
  * original arrays (ω, γ), which only located the paper's d.pos, are not
  * built. A non-reference is always decoded whole, from its factor lists
  * against its decoded reference, so a caller that decodes several
  * members of one group reads the reference's bits once; the Eq. 4–6
  * partial decode of a non-reference's γ is not implemented, because no
  * query path starts mid-way through a non-reference.
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

  /** Reference `slot`, from one sequential read of its fixed-width SV, E,
    * stored T′ and D (in blob order, from `svOff`). This is the only reader
    * of a reference's bits: a non-reference decodes against its result.
    */
  def refInstance(ct: CompressedTraj, slot: Int): Instance = {
    val rl = ct.refs(slot)
    val meta = ct.meta
    val r = new BitReader(ct.bits, rl.svOff)
    val sv = r.readBits(meta.svBits).toInt
    val edges = new Array[Int](rl.eLen)
    var i = 0
    while (i < edges.length) { edges(i) = r.readBits(meta.symBits).toInt; i += 1 }
    val storedTf = new Array[Boolean](math.max(0, rl.eLen - 2))
    i = 0
    while (i < storedTf.length) { storedTf(i) = r.readBit(); i += 1 }
    val dists = new Array[Double](ct.n)
    i = 0
    while (i < dists.length) { dists(i) = meta.pddpD.decode(r); i += 1 }
    named(ct)(Instance(rl.prob, sv, edges, Compressor.restoreTf(storedTf, rl.eLen), dists))
  }

  /** `in`, with the `IllegalArgumentException` of an instance whose decoded
    * E, T′ and D do not align (a corrupt blob) naming the trajectory.
    */
  private def named(ct: CompressedTraj)(in: => Instance): Instance =
    try in
    catch { case e: IllegalArgumentException => throw new IllegalArgumentException(s"trajectory ${ct.id}: ${e.getMessage}", e) }

  // ----------------------------------------------------- non-references

  /** Non-reference `k`, from one sequential read of its Com_E, Com_T′ and
    * Com_D (in blob order, from `comEOff`), rebuilt against `ref`, its
    * decoded reference (`refInstance` of its `refSlot`).
    */
  def nonRefInstance(ct: CompressedTraj, k: Int, ref: Instance): Instance = {
    val nl = ct.nonRefs(k)
    val refLen = ref.edges.length
    val pddpD = ct.meta.pddpD
    val r = new BitReader(ct.bits, nl.comEOff)
    val eFactors = RefFactors.decodeE(RefFactors.ELayout(refLen, ct.meta.symBits), r)
    val tfCom = RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), r)
    val dFactors = RefFactors.decodeD(RefFactors.DLayout(ct.n, pddpD.bits), r)
    val edges = RefFactors.reconstructE(ref.edges, eFactors)
    val tf = Compressor.restoreTf(RefFactors.reconstructTf(Compressor.storedTf(ref.tflags), tfCom), edges.length)
    named(ct)(Instance(nl.prob, ref.sv, edges, tf, RefFactors.reconstructD(ref.dists, dFactors, pddpD)))
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
    val refs = ct.refs.indices.map(refInstance(ct, _))
    ct.refs.indices.foreach(s => insts(ct.refs(s).origIdx) = refs(s))
    ct.nonRefs.indices.foreach(k => insts(ct.nonRefs(k).origIdx) = nonRefInstance(ct, k, refs(ct.nonRefs(k).refSlot)))
    UTraj(ct.id, times(ct), meta.ts, insts)
  }
}
