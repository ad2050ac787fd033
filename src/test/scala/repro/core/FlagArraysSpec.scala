package repro.core

import repro.SparkSpec

/** Tests of a reference's flag array ω and original array γ (§5.1)
  * against naive counting.
  */
class FlagArraysSpec extends SparkSpec {

  private def naiveGamma(fullTf: Array[Boolean], g: Int): Int =
    (0 to g).count(fullTf(_))

  test("flag array counts ones before each position of the stored T'") {
    val stored = Array(false, true, false, true, true)
    val omega = Decompressor.flagArray(stored)
    assert(omega.toSeq == Seq(0, 0, 1, 1, 2, 3))
  }

  test("gammaRef matches naive counting on the paper fixture") {
    import PaperFixture._
    Seq(tu11, tu12, tu13).foreach { in =>
      val stored = Compressor.storedTf(in.tflags)
      val omega = Decompressor.flagArray(stored)
      in.tflags.indices.foreach { g =>
        assert(Decompressor.gammaRef(stored, in.edges.length, omega, g) == naiveGamma(in.tflags, g),
          s"g=$g")
      }
    }
  }

  test("gammaRef handles the |E| = 1 and |E| = 2 degenerate shapes") {
    val one = Array(true)
    assert(Decompressor.gammaRef(Compressor.storedTf(one), 1, Decompressor.flagArray(Array.empty), 0) == 1)
    val two = Array(true, true)
    val stored = Compressor.storedTf(two)
    val om = Decompressor.flagArray(stored)
    assert(Decompressor.gammaRef(stored, 2, om, 0) == 1)
    assert(Decompressor.gammaRef(stored, 2, om, 1) == 2)
  }
}
