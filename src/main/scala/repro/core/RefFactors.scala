package repro.core

import repro.util.{BitReader, BitWriter, Bits}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** Referential representation of non-reference instances (§4.2).
  *
  * A non-reference is expressed against its reference as a list of factors:
  *
  *  - edge sequences E(·): `(S, L, M)` — longest match starting at position
  *    S of the reference, length L, followed by the first mismatched element
  *    M. Two special forms from the paper: a terminal `(S, L)` when the
  *    target ends inside a match (case A), and `(S, M)` with S = |E(Ref)|
  *    when an outgoing edge number does not occur in the reference at all
  *    (case B; L = 1 implied);
  *  - time-flag bit-strings T′(·): `(S, L)` factors whose mismatch bit M is
  *    inferred as NOT T′(Ref)[S+L]; the *last* factor is kept explicit
  *    (S, L, M) when a mismatch exists, per the paper;
  *  - relative distances D(·): `(pos, rd)` factors, one per position where
  *    the (quantized) value differs from the reference.
  *
  * An empty factor list means "identical to the reference".
  */
object RefFactors {

  // ------------------------------------------------------------------ E(·)

  /** A factor of Com_E. Exactly one of the paper's three shapes. */
  sealed trait EFactor {
    /** The number of E entries the factor stands for. */
    def entries: Int
  }
  /** Match of length `l` at reference position `s`, then mismatch symbol `m`. */
  final case class Slm(s: Int, l: Int, m: Int) extends EFactor { def entries: Int = l + 1 }
  /** Terminal match with no following mismatch (case A). */
  final case class Sl(s: Int, l: Int) extends EFactor { def entries: Int = l }
  /** Symbol `m` absent from the reference (case B; S=|ref|, L=1 implied). */
  final case class Sm(m: Int) extends EFactor { def entries: Int = 1 }

  /** Longest match of `target[from..]` inside `ref`; returns (start, length),
    * preferring the smallest start among maxima. Length 0 if `target(from)`
    * does not occur in `ref`.
    */
  private[core] def longestMatch(ref: Array[Int], target: Array[Int], from: Int): (Int, Int) = {
    var bestS = 0
    var bestL = 0
    var s = 0
    while (s < ref.length) {
      var l = 0
      while (s + l < ref.length && from + l < target.length && ref(s + l) == target(from + l)) l += 1
      if (l > bestL) { bestL = l; bestS = s }
      s += 1
    }
    (bestS, bestL)
  }

  /** Greedy factorization of an edge sequence against its reference. */
  def factorizeE(ref: Array[Int], target: Array[Int]): IndexedSeq[EFactor] = {
    if (java.util.Arrays.equals(ref, target)) return Vector.empty
    val out = ArrayBuffer[EFactor]()
    var i = 0
    while (i < target.length) {
      val (s, l) = longestMatch(ref, target, i)
      if (l == 0) { out += Sm(target(i)); i += 1 }
      else if (i + l == target.length) { out += Sl(s, l); i += l }
      else { out += Slm(s, l, target(i + l)); i += l + 1 }
    }
    out.toVector
  }

  /** Reconstruct an edge sequence from its factors. Empty list = copy ref.
    * Every match must lie inside `ref`, as [[decodeE]] checks.
    */
  def reconstructE(ref: Array[Int], factors: Seq[EFactor]): Array[Int] = {
    if (factors.isEmpty) return ref.clone()
    var len = 0
    factors.foreach(f => len += f.entries)
    val out = new Array[Int](len)
    var i = 0
    factors.foreach {
      case Slm(s, l, m) => System.arraycopy(ref, s, out, i, l); out(i + l) = m; i += l + 1
      case Sl(s, l)     => System.arraycopy(ref, s, out, i, l); i += l
      case Sm(m)        => out(i) = m; i += 1
    }
    out
  }

  /** Bit widths used when binary-encoding Com_E against a reference of
    * length `refLen` with symbol width `symBits` (= ⌈log2(o+1)⌉).
    */
  final case class ELayout(refLen: Int, symBits: Int) {
    val sBits: Int = Bits.widthFor(refLen + 1L) // S ∈ [0, refLen]; S = refLen tags case B
    val lBits: Int = Bits.widthFor(refLen.toLong) // stores L−1, L ∈ [1, refLen]
  }

  /** Encode Com_E: Exp-Golomb count header, 1-bit lastHasM flag, factors. */
  def encodeE(factors: Seq[EFactor], lay: ELayout, w: BitWriter): Unit = {
    ExpGolomb.encodeUnsigned(factors.length, w)
    if (factors.isEmpty) return
    val lastHasM = factors.last match {
      case _: Sl => false
      case _     => true
    }
    w.writeBit(lastHasM)
    factors.foreach {
      case Slm(s, l, m) =>
        w.writeBits(s.toLong, lay.sBits); w.writeBits((l - 1).toLong, lay.lBits); w.writeBits(m.toLong, lay.symBits)
      case Sl(s, l) =>
        w.writeBits(s.toLong, lay.sBits); w.writeBits((l - 1).toLong, lay.lBits)
      case Sm(m) =>
        w.writeBits(lay.refLen.toLong, lay.sBits); w.writeBits(m.toLong, lay.symBits)
    }
  }

  /** A factor count, checked against the bits left before a decoder
    * allocates that many factors: every factor but a terminal T′ factor
    * reads at least one bit.
    */
  private def factorCount(r: BitReader): Int = {
    val h = ExpGolomb.decodeUnsigned(r)
    require(h <= r.remaining + 1L, s"$h factors in the ${r.remaining} bits left")
    h
  }

  /** Decode Com_E; `atFactor` receives the bit offset at which each factor
    * starts (which [[Decompressor.layout]] keeps in
    * `NonRefLayout.comEFactorOffs`).
    */
  def decodeE(lay: ELayout, r: BitReader, atFactor: Int => Unit = _ => ()): IndexedSeq[EFactor] = {
    val h = factorCount(r)
    if (h == 0) return Vector.empty
    val lastHasM = r.readBit()
    val out = new Array[EFactor](h)
    var i = 0
    while (i < h) {
      atFactor(r.pos)
      val s = r.readBits(lay.sBits).toInt
      out(i) =
        if (s == lay.refLen) Sm(r.readBits(lay.symBits).toInt)
        else {
          val l = r.readBits(lay.lBits).toInt + 1
          require(s + l <= lay.refLen, s"E factor ($s, $l) outside a reference of ${lay.refLen} entries")
          if (i < h - 1 || lastHasM) Slm(s, l, r.readBits(lay.symBits).toInt)
          else Sl(s, l)
        }
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  // ----------------------------------------------------------------- T′(·)

  /** A factor of Com_T′: match (s, l); `m` is the explicit mismatch bit kept
    * only where the encoding demands it (last factor, or explicit mode).
    */
  final case class TfFactor(s: Int, l: Int, m: Option[Boolean])

  final case class TfCom(factors: IndexedSeq[TfFactor], explicitMode: Boolean)

  /** Factorize a time-flag bit-string against its reference.
    *
    * One greedy parse with [[longestMatch]] on 0/1 copies of both strings.
    * Implicit mode first: a non-terminal factor of length L relies on M
    * inference (M = NOT ref[S+L]), so it starts at the longest match over
    * `ref` without its last entry, the smallest start whose mismatch bit
    * is in range; by maximality that bit differs from the target's. When
    * no such start has the full length L (or L is 0: the bit never occurs
    * in `ref`, as with degenerate constant references), the parse is
    * redone in explicit-M mode, where every factor carries its mismatch
    * bit (1 header bit).
    */
  def factorizeTf(ref: Array[Boolean], target: Array[Boolean]): TfCom = {
    if (java.util.Arrays.equals(ref, target)) return TfCom(Vector.empty, explicitMode = false)
    if (target.isEmpty)
      // An empty factor list means "identical to the reference", so an empty
      // target against a non-empty reference needs one explicit zero-length
      // terminal factor.
      return TfCom(Vector(TfFactor(0, 0, None)), explicitMode = true)
    val r = ref.map(b => if (b) 1 else 0)
    val t = target.map(b => if (b) 1 else 0)
    parseTf(r, t, explicit = false) match {
      case Some(fs) => TfCom(fs, explicitMode = false)
      case None     => TfCom(parseTf(r, t, explicit = true).get, explicitMode = true)
    }
  }

  /** The greedy T′ parse of `target` against `ref` (0/1 entries); `None`
    * when implicit mode cannot infer some factor's M.
    */
  private def parseTf(ref: Array[Int], target: Array[Int], explicit: Boolean): Option[IndexedSeq[TfFactor]] = {
    val refInit = java.util.Arrays.copyOf(ref, math.max(0, ref.length - 1))
    val out = ArrayBuffer[TfFactor]()
    var i = 0
    while (i < target.length) {
      val (s, l) = longestMatch(ref, target, i)
      if (i + l == target.length) { out += TfFactor(s, l, None); i += l }
      else {
        val m = target(i + l) == 1
        if (explicit) out += TfFactor(s, l, Some(m))
        else {
          if (l == 0) return None
          val (inS, inL) = longestMatch(refInit, target, i)
          if (inL < l) return None
          // Paper: keep the last factor as (S, L, M) when its mismatch exists.
          out += TfFactor(inS, l, if (i + l + 1 == target.length) Some(m) else None)
        }
        i += l + 1
      }
    }
    Some(out.toVector)
  }

  /** Reconstruct a time-flag bit-string from its factors. Every match, and
    * every inferred M, must lie inside `ref`, as [[decodeTf]] checks.
    */
  def reconstructTf(ref: Array[Boolean], com: TfCom): Array[Boolean] = {
    val fs = com.factors
    val n = fs.length
    if (n == 0) return ref.clone()
    // Non-terminal factors infer M = NOT ref[S+L] unless they carry it;
    // terminal factors without M add nothing.
    var len = 0
    var idx = 0
    while (idx < n) {
      val f = fs(idx)
      if (idx < n - 1 && com.explicitMode && f.m.isEmpty)
        throw new IllegalStateException("explicit-mode non-terminal factor must carry M")
      len += f.l + (if (f.m.isDefined || idx < n - 1) 1 else 0)
      idx += 1
    }
    val out = new Array[Boolean](len)
    var i = 0
    idx = 0
    while (idx < n) {
      val f = fs(idx)
      System.arraycopy(ref, f.s, out, i, f.l)
      i += f.l
      f.m match {
        case Some(b)             => out(i) = b; i += 1
        case None if idx < n - 1 => out(i) = !ref(f.s + f.l); i += 1
        case None                =>
      }
      idx += 1
    }
    out
  }

  final case class TfLayout(refLen: Int) {
    val sBits: Int = Bits.widthFor(refLen + 1L)
    val lBits: Int = Bits.widthFor(refLen + 1L) // raw L (0 allowed in explicit mode)
  }

  def encodeTf(com: TfCom, lay: TfLayout, w: BitWriter): Unit = {
    ExpGolomb.encodeUnsigned(com.factors.length, w)
    if (com.factors.isEmpty) return
    w.writeBit(com.explicitMode)
    w.writeBit(com.factors.last.m.isDefined) // lastHasM
    val n = com.factors.length
    com.factors.zipWithIndex.foreach { case (TfFactor(s, l, m), idx) =>
      w.writeBits(s.toLong, lay.sBits)
      w.writeBits(l.toLong, lay.lBits)
      val carriesM = if (idx == n - 1) m.isDefined else com.explicitMode
      if (carriesM) w.writeBit(m.get)
    }
  }

  def decodeTf(lay: TfLayout, r: BitReader): TfCom = {
    val h = factorCount(r)
    if (h == 0) return TfCom(Vector.empty, explicitMode = false)
    val explicitMode = r.readBit()
    val lastHasM = r.readBit()
    val fs = new Array[TfFactor](h)
    var i = 0
    while (i < h) {
      val s = r.readBits(lay.sBits).toInt
      val l = r.readBits(lay.lBits).toInt
      val terminal = i == h - 1
      val inferred = if (!terminal && !explicitMode) 1 else 0 // an inferred M reads ref(s + l)
      require(s + l + inferred <= lay.refLen, s"T′ factor ($s, $l) outside a stored reference of ${lay.refLen} bits")
      val carriesM = if (terminal) lastHasM else explicitMode
      fs(i) = TfFactor(s, l, if (carriesM) Some(r.readBit()) else None)
      i += 1
    }
    TfCom(ArraySeq.unsafeWrapArray(fs), explicitMode)
  }

  // ------------------------------------------------------------------ D(·)

  /** A factor of Com_D: value at `pos` differs from the reference. */
  final case class DFactor(pos: Int, code: Long)

  /** Positions where the quantized distances differ from the reference.
    * Comparison happens post-quantization: equality of raw doubles is
    * preserved, and the reconstruction target is the reference's own
    * (lossy, η-bounded) stored values.
    */
  def factorizeD(refCodes: Array[Long], targetCodes: Array[Long]): IndexedSeq[DFactor] = {
    require(refCodes.length == targetCodes.length,
      "instances of one uncertain trajectory share the sample count")
    val out = ArrayBuffer[DFactor]()
    var i = 0
    while (i < refCodes.length) {
      if (refCodes(i) != targetCodes(i)) out += DFactor(i, targetCodes(i))
      i += 1
    }
    out.toVector
  }

  def reconstructD(refCodes: Array[Long], factors: Seq[DFactor]): Array[Long] = {
    val out = refCodes.clone()
    factors.foreach(f => out(f.pos) = f.code)
    out
  }

  final case class DLayout(numSamples: Int, rdBits: Int) {
    val posBits: Int = Bits.widthFor(numSamples.toLong)
  }

  def encodeD(factors: Seq[DFactor], lay: DLayout, w: BitWriter): Unit = {
    ExpGolomb.encodeUnsigned(factors.length, w)
    factors.foreach { f =>
      w.writeBits(f.pos.toLong, lay.posBits)
      w.writeBits(f.code, lay.rdBits)
    }
  }

  def decodeD(lay: DLayout, r: BitReader): IndexedSeq[DFactor] = {
    val out = new Array[DFactor](factorCount(r))
    var i = 0
    while (i < out.length) {
      val pos = r.readBits(lay.posBits).toInt
      require(pos < lay.numSamples, s"D factor at sample $pos of ${lay.numSamples}")
      out(i) = DFactor(pos, r.readBits(lay.rdBits))
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }
}
