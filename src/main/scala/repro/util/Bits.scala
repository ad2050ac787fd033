package repro.util

/** MSB-first append-only bit stream writer.
  *
  * All compressed artefacts in this repo (reference edge codes, PDDP
  * fractions, Exp-Golomb time deltas, referential factors) are written
  * through this class so that sizes reported by the benches are real bit
  * counts.
  */
final class BitWriter {
  private var words = new Array[Long](4)
  private var nbits: Int = 0

  /** Number of bits written so far (also the offset of the next bit). */
  def length: Int = nbits

  /** Append a single bit. */
  def writeBit(b: Boolean): Unit = writeBits(if (b) 1L else 0L, 1)

  /** Append the low `width` bits of `value`, most significant first: OR
    * them into the current word and, past its end, the next one.
    */
  def writeBits(value: Long, width: Int): Unit = {
    require(width >= 0 && width <= 64, s"bad width $width")
    require(width == 64 || (value >>> width) == 0, s"value $value does not fit in $width bits")
    if (width == 0) return
    val word = nbits >>> 6
    if (word + 1 >= words.length) words = java.util.Arrays.copyOf(words, 2 * words.length)
    val free = 64 - (nbits & 63) // bits left in the current word
    if (width <= free) words(word) |= value << (free - width)
    else {
      words(word) |= value >>> (width - free)
      words(word + 1) = value << (64 - (width - free))
    }
    nbits += width
  }

  def toBitVec: BitVec = new BitVec(java.util.Arrays.copyOf(words, (nbits + 63) >>> 6), nbits)
}

/** Immutable bit vector with random access; the storage unit of every
  * compressed component. `length` is in bits; backing words are MSB-first.
  */
final class BitVec(private val words: Array[Long], val length: Int) extends Serializable {

  /** Bit at position `i` (0-based from the start of the stream). */
  def apply(i: Int): Boolean = {
    require(i >= 0 && i < length, s"bit index $i out of [0,$length)")
    (words(i >>> 6) & (1L << (63 - (i & 63)))) != 0L
  }

  /** Read `width` bits starting at `pos` as an unsigned value. */
  def readBits(pos: Int, width: Int): Long = {
    if (width == 0) return 0L
    require(width <= 64 && pos >= 0 && pos <= length - width, s"bits [$pos, ${pos + width}) out of [0,$length)")
    val off = pos & 63
    val high = words(pos >>> 6) << off // the first word's bits from `pos` on, at the top
    if (off + width <= 64) high >>> (64 - width)
    else (high >>> (64 - width)) | (words((pos >>> 6) + 1) >>> (128 - off - width))
  }

  /** Serialize to bytes (for Spark blobs); length is carried separately.
    * Bits past `length` in the last byte are zero.
    */
  def toBytes: Array[Byte] = {
    val out = new Array[Byte]((length + 7) / 8)
    var i = 0
    while (i < out.length) {
      out(i) = (words(i >>> 3) >>> (56 - 8 * (i & 7))).toByte
      i += 1
    }
    if ((length & 7) != 0) out(out.length - 1) = (out(out.length - 1) & (0xff << (8 - (length & 7)))).toByte
    out
  }

  override def equals(o: Any): Boolean = o match {
    case v: BitVec =>
      v.length == length && (0 until length).forall(i => v(i) == apply(i))
    case _ => false
  }
  override def hashCode: Int = (0 until length).foldLeft(length)((h, i) => h * 31 + (if (apply(i)) 1 else 0))

  override def toString: String = {
    val n = math.min(length, 96)
    val s = (0 until n).map(i => if (apply(i)) '1' else '0').mkString
    if (length > n) s"BitVec($length)[$s…]" else s"BitVec($length)[$s]"
  }
}

object BitVec {
  val empty: BitVec = new BitVec(Array.empty, 0)

  def fromBools(bits: Seq[Boolean]): BitVec = {
    val w = new BitWriter
    bits.foreach(w.writeBit)
    w.toBitVec
  }

  /** The first `nbits` bits of `bytes`, MSB-first, eight bytes per word. */
  def fromBytes(bytes: Array[Byte], nbits: Int): BitVec = {
    require(nbits >= 0 && nbits <= 8L * bytes.length, s"$nbits bits in ${bytes.length} bytes")
    val words = new Array[Long]((nbits + 63) >>> 6)
    val nBytes = (nbits + 7) >>> 3
    var i = 0
    while (i < nBytes) {
      words(i >>> 3) |= (bytes(i) & 0xffL) << (56 - 8 * (i & 7))
      i += 1
    }
    new BitVec(words, nbits)
  }

  /** Parse a "0101" debug string; used by tests to pin paper examples. */
  def parse(s: String): BitVec = fromBools(s.map(_ == '1'))
}

/** Sequential reader over a [[BitVec]] keeping a cursor; used by decoders. */
final class BitReader(val vec: BitVec, start: Int = 0) {
  private var posv: Int = start
  def pos: Int = posv
  def remaining: Int = vec.length - posv
  def seek(p: Int): Unit = { require(p >= 0 && p <= vec.length); posv = p }

  def readBit(): Boolean = { val b = vec(posv); posv += 1; b }

  def readBits(width: Int): Long = {
    val v = vec.readBits(posv, width)
    posv += width
    v
  }
}

object Bits {
  /** Minimal width to encode values 0..n-1 (0 for n <= 1). */
  def widthFor(n: Long): Int = if (n <= 1) 0 else 64 - java.lang.Long.numberOfLeadingZeros(n - 1)
}
