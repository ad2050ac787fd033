package repro.core

import repro.util.{BitReader, BitWriter}

/** Improved Exp-Golomb code for signed sample-interval deviations (§4.4).
  *
  * Deviations are grouped by magnitude: group j (j ≥ 0) covers
  * [−2^(j+1)+2, −2^j+1] ∪ [2^j−1, 2^(j+1)−2], so group 0 = {0},
  * group 1 = {±1, ±2}, group 2 = {±3..±6}, …
  *
  * Code layout per value Δ:
  *  - group prefix: j one-bits followed by a zero-bit (group 0 is just "0");
  *  - sign bit (groups ≥ 1 only): 1 if Δ < 0 else 0;
  *  - offset |Δ| − (2^j − 1) in j bits.
  *
  * This reproduces the paper's worked example: ⟨0, 1, 0, −1, 0, 0⟩ encodes
  * to ⟨0, 1000, 0, 1010, 0, 0⟩ (12 bits).
  */
object ExpGolomb {

  /** Largest |Δ| the code holds: the top of group 30, 2^31 − 2. A group-31
    * offset would need 31 bits and values beyond `Int` range.
    */
  val MaxAbs: Int = Int.MaxValue - 1

  /** Group index of deviation Δ: smallest j with |Δ| ≤ 2^(j+1) − 2, that is
    * ⌊log2(|Δ| + 1)⌋. Requires |Δ| ≤ [[MaxAbs]].
    */
  def groupOf(delta: Int): Int = {
    require(delta >= -MaxAbs && delta <= MaxAbs, s"Exp-Golomb deviation $delta outside ±$MaxAbs")
    31 - Integer.numberOfLeadingZeros(math.abs(delta) + 1)
  }

  def encode(delta: Int, w: BitWriter): Unit = {
    val j = groupOf(delta)
    var i = 0
    while (i < j) { w.writeBit(true); i += 1 }
    w.writeBit(false)
    if (j > 0) {
      w.writeBit(delta < 0)
      val offset = math.abs(delta) - ((1 << j) - 1)
      w.writeBits(offset.toLong, j)
    }
  }

  def decode(r: BitReader): Int = {
    var j = 0
    while (r.readBit()) j += 1
    require(j <= 30, s"Exp-Golomb group $j beyond the code's 30")
    if (j == 0) 0
    else {
      val neg = r.readBit()
      val offset = r.readBits(j).toInt
      val m = ((1 << j) - 1) + offset
      if (neg) -m else m
    }
  }

  /** Bit length of the code for Δ without emitting it. */
  def bitLength(delta: Int): Int = {
    val j = groupOf(delta)
    if (j == 0) 1 else (j + 1) + 1 + j
  }

  // ------------------------------------------------------------------
  // Standard order-0 Exp-Golomb for unsigned values — used for the
  // self-delimiting factor-count headers of the referential encodings
  // (x = 0 costs one bit, which matters because most Com_D / Com_T′
  // lists are empty).
  // ------------------------------------------------------------------

  def encodeUnsigned(x: Int, w: BitWriter): Unit = {
    require(x >= 0 && x < Int.MaxValue, s"Exp-Golomb count $x outside [0, ${Int.MaxValue})")
    val v = x + 1L
    val len = 64 - java.lang.Long.numberOfLeadingZeros(v)
    var i = 0
    while (i < len - 1) { w.writeBit(false); i += 1 }
    w.writeBits(v, len)
  }

  def decodeUnsigned(r: BitReader): Int = {
    var zeros = 0
    while (!r.readBit()) zeros += 1
    require(zeros <= 30, s"Exp-Golomb prefix of $zeros zeros beyond the code's 30")
    var v = 1L
    var i = 0
    while (i < zeros) { v = (v << 1) | (if (r.readBit()) 1L else 0L); i += 1 }
    (v - 1).toInt
  }
}
