package repro.core

import repro.SparkSpec
import repro.core.RefFactors._
import repro.util.{BitReader, BitWriter}
import scala.util.Random

/** Property-style coverage of the referential codecs beyond the paper's
  * worked examples: random reference/target pairs must round-trip through
  * factorization and through the binary encodings.
  */
class RefFactorsSpec extends SparkSpec {

  private val rnd = new Random(11)

  private def randomSeq(len: Int, alphabet: Int): Array[Int] =
    Array.fill(len)(rnd.nextInt(alphabet))

  private def mutate(base: Array[Int], edits: Int, alphabet: Int): Array[Int] = {
    val cur = base.clone.toBuffer
    (1 to edits).foreach { _ =>
      rnd.nextInt(3) match {
        case 0 if cur.nonEmpty => cur(rnd.nextInt(cur.length)) = rnd.nextInt(alphabet)
        case 1                 => cur.insert(rnd.nextInt(cur.length + 1), rnd.nextInt(alphabet))
        case _ if cur.length > 1 => cur.remove(rnd.nextInt(cur.length))
        case _                 => ()
      }
    }
    cur.toArray
  }

  // ------------------------------------------------------------------ E(·)

  test("identical sequences factorize to the empty list") {
    val e = Array(1, 2, 3, 1)
    assert(factorizeE(e, e.clone).isEmpty)
    assert(reconstructE(e, Vector.empty).toSeq == e.toSeq)
  }

  test("E factorization reconstructs random near-copies") {
    (1 to 300).foreach { _ =>
      val ref = randomSeq(2 + rnd.nextInt(60), 5)
      val target = mutate(ref, rnd.nextInt(5), 5)
      if (target.nonEmpty) {
        val fs = factorizeE(ref, target)
        assert(reconstructE(ref, fs).toSeq == target.toSeq)
      }
    }
  }

  test("E factorization reconstructs unrelated sequences") {
    (1 to 100).foreach { _ =>
      val ref = randomSeq(2 + rnd.nextInt(30), 6)
      val target = randomSeq(1 + rnd.nextInt(30), 8) // symbols 6,7 absent from ref possible
      val fs = factorizeE(ref, target)
      assert(reconstructE(ref, fs).toSeq == target.toSeq)
    }
  }

  test("similar sequences need fewer factors than dissimilar ones") {
    val ref = randomSeq(40, 5)
    val near = mutate(ref, 2, 5)
    val far = randomSeq(40, 5)
    assert(factorizeE(ref, near).length <= factorizeE(ref, far).length)
  }

  test("(S,L) terminal factor only ever appears last") {
    (1 to 200).foreach { _ =>
      val ref = randomSeq(2 + rnd.nextInt(40), 5)
      val target = mutate(ref, rnd.nextInt(6), 5)
      if (target.nonEmpty) {
        val fs = factorizeE(ref, target)
        fs.dropRight(1).foreach {
          case _: Sl => fail("non-terminal (S,L) factor")
          case _     => ()
        }
      }
    }
  }

  test("binary E encoding round-trips random factor lists") {
    (1 to 200).foreach { _ =>
      val ref = randomSeq(2 + rnd.nextInt(60), 7)
      val target = mutate(ref, rnd.nextInt(6), 7)
      if (target.nonEmpty) {
        val fs = factorizeE(ref, target)
        val lay = ELayout(ref.length, 3)
        val w = new BitWriter
        encodeE(fs, lay, w)
        val back = decodeE(lay, new BitReader(w.toBitVec))
        assert(back == fs)
        assert(reconstructE(ref, back).toSeq == target.toSeq)
      }
    }
  }

  // ----------------------------------------------------------------- T′(·)

  private def randomBits(len: Int): Array[Boolean] = Array.fill(len)(rnd.nextBoolean())

  private def mutateBits(base: Array[Boolean], edits: Int): Array[Boolean] = {
    val cur = base.clone.toBuffer
    (1 to edits).foreach { _ =>
      rnd.nextInt(3) match {
        case 0 if cur.nonEmpty => cur(rnd.nextInt(cur.length)) = rnd.nextBoolean()
        case 1                 => cur.insert(rnd.nextInt(cur.length + 1), rnd.nextBoolean())
        case _ if cur.length > 1 => cur.remove(rnd.nextInt(cur.length))
        case _                 => ()
      }
    }
    cur.toArray
  }

  test("identical bit-strings give the empty Com_T'") {
    val b = randomBits(10)
    assert(factorizeTf(b, b.clone).factors.isEmpty)
  }

  test("T' factorization reconstructs random near-copies (implicit M)") {
    (1 to 300).foreach { _ =>
      val ref = randomBits(2 + rnd.nextInt(40))
      val target = mutateBits(ref, rnd.nextInt(4))
      val com = factorizeTf(ref, target)
      assert(reconstructTf(ref, com).toSeq == target.toSeq)
    }
  }

  test("T' factorization survives degenerate constant references") {
    val allOnes = Array.fill(8)(true)
    Seq(
      Array(true, false, true, true),
      Array(false, false),
      Array.fill(5)(false),
      Array.fill(3)(true),
    ).foreach { target =>
      val com = factorizeTf(allOnes, target)
      assert(reconstructTf(allOnes, com).toSeq == target.toSeq)
    }
  }

  test("T' factorization handles empty reference and empty target") {
    assert(reconstructTf(Array.empty, factorizeTf(Array.empty, Array(true, false))).toSeq ==
      Seq(true, false))
    assert(reconstructTf(Array(true, false), factorizeTf(Array(true, false), Array.empty)).isEmpty)
    assert(reconstructTf(Array.empty, factorizeTf(Array.empty, Array.empty)).isEmpty)
  }

  test("binary T' encoding round-trips, including explicit mode") {
    (1 to 300).foreach { _ =>
      val refLen = rnd.nextInt(30)
      val ref = randomBits(refLen)
      val target = if (rnd.nextBoolean()) mutateBits(ref, rnd.nextInt(4)) else randomBits(rnd.nextInt(30))
      val com = factorizeTf(ref, target)
      val lay = TfLayout(refLen)
      val w = new BitWriter
      encodeTf(com, lay, w)
      val back = decodeTf(lay, new BitReader(w.toBitVec))
      assert(reconstructTf(ref, back).toSeq == target.toSeq)
    }
  }

  test("empty Com_T' costs a single header bit") {
    val ref = randomBits(10)
    val com = factorizeTf(ref, ref.clone)
    val w = new BitWriter
    encodeTf(com, TfLayout(10), w)
    assert(w.length == 1)
  }

  // ------------------------------------------------------------------ D(·)

  test("D factorization records only differing positions") {
    val ref = Array(1L, 2L, 3L, 4L)
    val target = Array(1L, 9L, 3L, 7L)
    val fs = factorizeD(ref, target)
    assert(fs == Vector(DFactor(1, 9L), DFactor(3, 7L)))
    val pddp = Pddp(1.0 / 128)
    assert(reconstructD(ref.map(pddp.dequantize), fs, pddp).toSeq == target.map(pddp.dequantize).toSeq)
  }

  test("equal D sequences give the empty factor list") {
    val ref = Array(5L, 5L, 0L)
    assert(factorizeD(ref, ref.clone).isEmpty)
  }

  test("D factor binary encoding round-trips") {
    (1 to 200).foreach { _ =>
      val n = 1 + rnd.nextInt(40)
      val ref = Array.fill(n)(rnd.nextInt(128).toLong)
      val target = ref.clone
      (1 to rnd.nextInt(5)).foreach(_ => target(rnd.nextInt(n)) = rnd.nextInt(128).toLong)
      val fs = factorizeD(ref, target)
      val lay = DLayout(n, 7)
      val w = new BitWriter
      encodeD(fs, lay, w)
      val back = decodeD(lay, new BitReader(w.toBitVec))
      assert(back == fs)
      val pddp = Pddp(1.0 / 128)
      assert(reconstructD(ref.map(pddp.dequantize), back, pddp).toSeq == target.map(pddp.dequantize).toSeq)
    }
  }

  test("a factor count beyond the bits left fails before the factors are allocated") {
    // Counts of 2^29 and the largest the count code takes (2^31 − 2), each
    // followed by 40 bits: an IllegalArgumentException, not an OutOfMemoryError.
    Seq(1 << 29, Int.MaxValue - 1).foreach { h =>
      val w = new BitWriter
      ExpGolomb.encodeUnsigned(h, w)
      w.writeBits(0L, 40)
      val bits = w.toBitVec
      intercept[IllegalArgumentException](decodeE(ELayout(10, 3), new BitReader(bits)))
      intercept[IllegalArgumentException](decodeTf(TfLayout(10), new BitReader(bits)))
      intercept[IllegalArgumentException](decodeD(DLayout(10, 7), new BitReader(bits)))
    }
  }

  test("D factorization requires equal lengths (shared sample count)") {
    intercept[IllegalArgumentException](factorizeD(Array(1L), Array(1L, 2L)))
  }
}
