package repro.core

import repro.traj.{Instance, UTraj}
import repro.util.{BitReader, Bits}

/** Full and partial decompression of [[CompressedTraj]] blobs (§5.1).
  *
  * Times can be decoded from an arbitrary Δ offset (the StIU temporal
  * index's t.pos), and reference components are fixed-width and
  * random-accessible (ω and γ of a reference give the D offset the StIU
  * reference tuples store). A non-reference is always decoded whole, from
  * its reference and its factor lists; the Eq. 4–6 partial decode of a
  * non-reference's γ is not implemented, because no query path starts
  * mid-way through a non-reference.
  */
object Decompressor {

  // ------------------------------------------------------------- layout

  /** One sequential parse of `ct`'s blob, with the decoders below, into the
    * bit offset of every component. Fails with an `IllegalArgumentException`
    * naming the trajectory unless the parse ends exactly at `blobBits`.
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
    require(n == ct.n && numRefs <= numInsts, s"header n=$n, N=$numInsts, R=$numRefs")

    val tOff = r.pos
    r.readBits(meta.t0Bits)
    val deltaOffs = Array.fill(n - 1) { val at = r.pos; ExpGolomb.decode(r); at }

    val origIdxBits = Bits.widthFor(numInsts.toLong)
    val refs = Array.fill(numRefs) {
      val origIdx = r.readBits(origIdxBits).toInt
      val eLen = ExpGolomb.decodeUnsigned(r)
      val svOff = r.pos
      val eOff = svOff + meta.svBits
      val tfOff = eOff + eLen * meta.symBits
      val dOff = tfOff + math.max(0, eLen - 2)
      val pOff = dOff + n * pddpD.bits
      r.seek(pOff)
      RefLayout(origIdx, eLen, svOff, eOff, tfOff, dOff, pOff, pddpP.decode(r))
    }

    def entries(f: RefFactors.EFactor): Int = f match {
      case RefFactors.Slm(_, l, _) => l + 1
      case RefFactors.Sl(_, l)     => l
      case _: RefFactors.Sm        => 1
    }
    val refSlotBits = Bits.widthFor(math.max(1, numRefs).toLong)
    val nonRefs = Array.fill(numInsts - numRefs) {
      val origIdx = r.readBits(origIdxBits).toInt
      val refSlot = r.readBits(refSlotBits).toInt
      require(refSlot < numRefs, s"reference slot $refSlot of $numRefs")
      val pOff = r.pos
      val prob = pddpP.decode(r)
      val refLen = refs(refSlot).eLen
      val comEOff = r.pos
      val factorOffs = Array.newBuilder[Int]
      val eFactors = RefFactors.decodeE(RefFactors.ELayout(refLen, meta.symBits), r, factorOffs += _)
      val comTfOff = r.pos
      RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), r)
      val comDOff = r.pos
      RefFactors.decodeD(RefFactors.DLayout(n, pddpD.bits), r)
      NonRefLayout(origIdx, refSlot, pOff, comEOff, comTfOff, comDOff, prob,
        factorOffs.result(), eFactors.scanLeft(0)(_ + entries(_)).init.toArray)
    }

    require(r.pos == ct.blobBits, s"the parse ends at bit ${r.pos}")
    Layout(tOff, deltaOffs, refs, nonRefs)
  }

  // -------------------------------------------------------------- times

  /** Decode the full time sequence. */
  def times(meta: DatasetMeta, ct: CompressedTraj): Array[Int] = {
    val r = new BitReader(ct.bits, ct.tOff)
    val t0 = r.readBits(meta.t0Bits).toInt
    val deltas = new Array[Int](ct.n - 1)
    var i = 0
    while (i < deltas.length) { deltas(i) = ExpGolomb.decode(r); i += 1 }
    Siar.restore(t0, deltas, meta.ts)
  }

  /** Decode timestamps `fromIdx until ct.n`, starting mid-stream at the Δ
    * offset the temporal index stored (t.pos); `tStart` is the timestamp at
    * `fromIdx` (t.start). Cost is proportional to the decoded suffix only.
    */
  def timesFrom(meta: DatasetMeta, ct: CompressedTraj, fromIdx: Int, tStart: Int): Array[Int] = {
    if (fromIdx >= ct.n - 1) return Array(tStart)
    val r = new BitReader(ct.bits, ct.deltaOffs(fromIdx))
    val out = new Array[Int](ct.n - fromIdx)
    out(0) = tStart
    var i = 1
    while (i < out.length) {
      out(i) = out(i - 1) + meta.ts + ExpGolomb.decode(r)
      i += 1
    }
    out
  }

  // --------------------------------------------------------- references

  def refSv(meta: DatasetMeta, ct: CompressedTraj, slot: Int): Int =
    ct.bits.readBits(ct.refs(slot).svOff, meta.svBits).toInt

  def refEdges(meta: DatasetMeta, ct: CompressedTraj, slot: Int): Array[Int] = {
    val rl = ct.refs(slot)
    val out = new Array[Int](rl.eLen)
    var i = 0
    while (i < rl.eLen) {
      out(i) = ct.bits.readBits(rl.eOff + i * meta.symBits, meta.symBits).toInt
      i += 1
    }
    out
  }

  /** Random access to one E entry of a reference (fixed-width codes). */
  def refEdgeEntry(meta: DatasetMeta, ct: CompressedTraj, slot: Int, entry: Int): Int =
    ct.bits.readBits(ct.refs(slot).eOff + entry * meta.symBits, meta.symBits).toInt

  /** Stored T′ of a reference (first/last bits omitted). */
  def refStoredTf(ct: CompressedTraj, slot: Int): Array[Boolean] = {
    val rl = ct.refs(slot)
    val len = math.max(0, rl.eLen - 2)
    Array.tabulate(len)(i => ct.bits(rl.tfOff + i))
  }

  def refTf(ct: CompressedTraj, slot: Int): Array[Boolean] =
    Compressor.restoreTf(refStoredTf(ct, slot), ct.refs(slot).eLen)

  def refDists(meta: DatasetMeta, ct: CompressedTraj, slot: Int): Array[Double] = {
    val rl = ct.refs(slot)
    val pddpD = meta.pddpD
    Array.tabulate(ct.n)(i => pddpD.dequantize(ct.bits.readBits(rl.dOff + i * pddpD.bits, pddpD.bits)))
  }

  /** Random access to one relative distance of a reference — this is what
    * the StIU d.pos field points at.
    */
  def refDistAt(meta: DatasetMeta, ct: CompressedTraj, dPos: Int): Double = {
    val pddpD = meta.pddpD
    pddpD.dequantize(ct.bits.readBits(dPos, pddpD.bits))
  }

  def refInstance(meta: DatasetMeta, ct: CompressedTraj, slot: Int): Instance = {
    val rl = ct.refs(slot)
    Instance(rl.prob, refSv(meta, ct, slot), refEdges(meta, ct, slot), refTf(ct, slot),
      refDists(meta, ct, slot))
  }

  // ----------------------------------------------------- non-references

  def nonRefEFactors(meta: DatasetMeta, ct: CompressedTraj, k: Int): IndexedSeq[RefFactors.EFactor] = {
    val nl = ct.nonRefs(k)
    val refLen = ct.refs(nl.refSlot).eLen
    RefFactors.decodeE(RefFactors.ELayout(refLen, meta.symBits), new BitReader(ct.bits, nl.comEOff))
  }

  def nonRefTfCom(meta: DatasetMeta, ct: CompressedTraj, k: Int): RefFactors.TfCom = {
    val nl = ct.nonRefs(k)
    val refLen = ct.refs(nl.refSlot).eLen
    RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), new BitReader(ct.bits, nl.comTfOff))
  }

  def nonRefDFactors(meta: DatasetMeta, ct: CompressedTraj, k: Int): IndexedSeq[RefFactors.DFactor] = {
    val nl = ct.nonRefs(k)
    val pddpD = meta.pddpD
    RefFactors.decodeD(RefFactors.DLayout(ct.n, pddpD.bits), new BitReader(ct.bits, nl.comDOff))
  }

  def nonRefInstance(meta: DatasetMeta, ct: CompressedTraj, k: Int): Instance = {
    val nl = ct.nonRefs(k)
    val slot = nl.refSlot
    val refE = refEdges(meta, ct, slot)
    val edges = RefFactors.reconstructE(refE, nonRefEFactors(meta, ct, k))
    val storedRefTf = refStoredTf(ct, slot)
    val tf = Compressor.restoreTf(
      RefFactors.reconstructTf(storedRefTf, nonRefTfCom(meta, ct, k)), edges.length)
    val pddpD = meta.pddpD
    val rl = ct.refs(slot)
    val refCodes = Array.tabulate(ct.n)(i => ct.bits.readBits(rl.dOff + i * pddpD.bits, pddpD.bits))
    val codes = RefFactors.reconstructD(refCodes, nonRefDFactors(meta, ct, k))
    Instance(nl.prob, refSv(meta, ct, slot), edges, tf, codes.map(pddpD.dequantize))
  }

  /** Full decompression: the uncertain trajectory with instances back in
    * their original order (probabilities and distances η-rounded).
    */
  def decompress(meta: DatasetMeta, ct: CompressedTraj): UTraj = {
    val insts = new Array[Instance](ct.numInstances)
    ct.refs.indices.foreach(s => insts(ct.refs(s).origIdx) = refInstance(meta, ct, s))
    ct.nonRefs.indices.foreach(k => insts(ct.nonRefs(k).origIdx) = nonRefInstance(meta, ct, k))
    UTraj(ct.id, times(meta, ct), meta.ts, insts)
  }

  // ------------------------------------------- flag / original arrays §5.1

  /** Flag array ω of a reference: ω(g) = number of 1s among the first `g`
    * bits of the *stored* T′(Ref) (prefix sums; length |T′|+1).
    */
  def flagArray(storedRefTf: Array[Boolean]): Array[Int] = {
    val out = new Array[Int](storedRefTf.length + 1)
    var i = 0
    while (i < storedRefTf.length) {
      out(i + 1) = out(i) + (if (storedRefTf(i)) 1 else 0)
      i += 1
    }
    out
  }

  /** Original array γ of a reference: γ(g) = number of 1s in the *original*
    * T′ (with the implicit leading/trailing 1s) up to and including bit `g`.
    * This equals the number of mapped locations on E entries 0..g.
    */
  def gammaRef(storedRefTf: Array[Boolean], eLen: Int, omega: Array[Int], g: Int): Int = {
    require(g >= 0 && g < eLen)
    if (eLen == 1) 1
    else if (g == eLen - 1) omega(storedRefTf.length) + 2
    else 1 + omega(g) // leading implicit 1 + stored ones in [0, g)
  }
}
