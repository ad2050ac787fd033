package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.util.{BitReader, BitWriter}
import scala.util.Random

/** Unit tests for the three scalar codecs: improved Exp-Golomb, PDDP
  * surrogate, and SIAR.
  */
class ExpGolombSpec extends SparkSpec {

  private def roundTrip(d: Int): Int = {
    val w = new BitWriter
    ExpGolomb.encode(d, w)
    ExpGolomb.decode(new BitReader(w.toBitVec))
  }

  test("group boundaries follow the paper's ranges") {
    assert(ExpGolomb.groupOf(0) == 0)
    assert(ExpGolomb.groupOf(1) == 1)
    assert(ExpGolomb.groupOf(2) == 1)
    assert(ExpGolomb.groupOf(3) == 2)
    assert(ExpGolomb.groupOf(6) == 2)
    assert(ExpGolomb.groupOf(7) == 3)
    assert(ExpGolomb.groupOf(14) == 3)
    assert(ExpGolomb.groupOf(-1) == 1)
    assert(ExpGolomb.groupOf(-6) == 2)
  }

  test("zero takes a single bit") {
    assert(ExpGolomb.bitLength(0) == 1)
  }

  test("group j takes 2j+2 bits") {
    assert(ExpGolomb.bitLength(1) == 4)
    assert(ExpGolomb.bitLength(-2) == 4)
    assert(ExpGolomb.bitLength(3) == 6)
    assert(ExpGolomb.bitLength(-6) == 6)
    assert(ExpGolomb.bitLength(7) == 8)
  }

  test("small deviations cost less than large ones") {
    assert(ExpGolomb.bitLength(0) < ExpGolomb.bitLength(1))
    assert(ExpGolomb.bitLength(1) < ExpGolomb.bitLength(5))
    assert(ExpGolomb.bitLength(5) < ExpGolomb.bitLength(100))
  }

  test("round-trip of all deltas in [-300, 300]") {
    (-300 to 300).foreach(d => assert(roundTrip(d) == d, s"delta $d"))
  }

  test("bitLength matches the emitted length") {
    (-300 to 300).foreach { d =>
      val w = new BitWriter
      ExpGolomb.encode(d, w)
      assert(w.length == ExpGolomb.bitLength(d), s"delta $d")
    }
  }

  test("streams of deltas decode in sequence") {
    val rnd = new Random(5)
    (1 to 50).foreach { _ =>
      val ds = Array.fill(1 + rnd.nextInt(40))(rnd.nextInt(241) - 120)
      val w = new BitWriter
      ds.foreach(ExpGolomb.encode(_, w))
      val r = new BitReader(w.toBitVec)
      ds.foreach(d => assert(ExpGolomb.decode(r) == d))
      assert(r.remaining == 0)
    }
  }

  test("Exp-Golomb round-trips its full domain, the bounds included (ScalaCheck)") {
    val max = ExpGolomb.MaxAbs
    // Both ends of every group j: ±(2^j − 1) and ±(2^(j+1) − 2).
    val groupEnds = for {
      j <- Gen.choose(0, 30)
      top <- Gen.oneOf(false, true)
      neg <- Gen.oneOf(false, true)
    } yield {
      val m = if (top) (1 << (j + 1)) - 2 else (1 << j) - 1
      if (neg) -m else m
    }
    val delta = Gen.frequency(3 -> Gen.chooseNum(-max, max), 1 -> Gen.oneOf(-max, max), 2 -> groupEnds)
    val prop = Prop.forAll(Gen.listOf(delta)) { ds =>
      val w = new BitWriter
      ds.foreach(ExpGolomb.encode(_, w))
      val r = new BitReader(w.toBitVec)
      ds.forall(ExpGolomb.decode(r) == _) && r.remaining == 0 &&
        w.length == ds.map(ExpGolomb.bitLength).sum
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(61L)), prop)
    assert(res.passed, res)
  }

  test("Exp-Golomb rejects deviations beyond ±(2^31 − 2) instead of hanging or mis-encoding") {
    assert(ExpGolomb.MaxAbs.toLong == (1L << 31) - 2)
    Seq(ExpGolomb.MaxAbs, -ExpGolomb.MaxAbs).foreach(d => assert(roundTrip(d) == d))
    Seq(Int.MaxValue, -Int.MaxValue, Int.MinValue).foreach { d =>
      val e = intercept[IllegalArgumentException](ExpGolomb.encode(d, new BitWriter))
      assert(e.getMessage.contains(d.toString))
    }
  }

  test("Exp-Golomb decode rejects a group prefix beyond 30") {
    val w = new BitWriter
    (1 to 31).foreach(_ => w.writeBit(true))
    w.writeBits(0L, 40)
    intercept[IllegalArgumentException](ExpGolomb.decode(new BitReader(w.toBitVec)))
  }
}


class PddpSpec extends SparkSpec {

  test("bit width is ceil(log2(1/eta))") {
    assert(Pddp(1.0 / 128).bits == 7)
    assert(Pddp(1.0 / 512).bits == 9)
    assert(Pddp(1.0 / 2048).bits == 11)
    assert(Pddp(1.0 / 8).bits == 3)
  }

  test("error stays within eta") {
    Seq(1.0 / 8, 1.0 / 128, 1.0 / 512, 1.0 / 2048).foreach { eta =>
      val p = Pddp(eta)
      val rnd = new Random(6)
      (1 to 500).foreach { _ =>
        val x = rnd.nextDouble()
        assert(math.abs(p.roundTrip(x) - x) <= eta, s"eta=$eta x=$x")
      }
    }
  }

  test("exact dyadic fractions survive unchanged") {
    val p = Pddp(1.0 / 128)
    Seq(0.0, 0.5, 0.25, 0.875, 0.0078125).foreach(x => assert(p.roundTrip(x) == x))
  }

  test("boundary values encode") {
    val p = Pddp(1.0 / 128)
    assert(p.roundTrip(0.0) == 0.0)
    assert(math.abs(p.roundTrip(1.0) - 1.0) <= 1.0 / 128)
  }

  test("codec writes exactly `bits` bits") {
    val p = Pddp(1.0 / 512)
    val w = new BitWriter
    p.encode(0.37, w)
    assert(w.length == 9)
    assert(math.abs(p.decode(new BitReader(w.toBitVec)) - 0.37) <= 1.0 / 512)
  }

  test("quantize is monotone") {
    val p = Pddp(1.0 / 128)
    var prev = -1L
    (0 to 100).foreach { i =>
      val q = p.quantize(i / 100.0)
      assert(q >= prev)
      prev = q
    }
  }

  test("equal inputs quantize equally (the D-referential precondition)") {
    val p = Pddp(1.0 / 128)
    val rnd = new Random(7)
    (1 to 200).foreach { _ =>
      val x = rnd.nextDouble()
      assert(p.quantize(x) == p.quantize(x))
    }
  }
}

class SiarSpec extends SparkSpec {

  test("constant intervals give all-zero deltas") {
    val times = Array(100, 340, 580, 820)
    val (t0, ds) = Siar.represent(times, 240)
    assert(t0 == 100)
    assert(ds.forall(_ == 0))
  }

  test("restore inverts represent for random sequences") {
    val rnd = new Random(8)
    (1 to 100).foreach { _ =>
      val ts = 1 + rnd.nextInt(300)
      val n = 2 + rnd.nextInt(50)
      val times = new Array[Int](n)
      times(0) = rnd.nextInt(50000)
      (1 until n).foreach(i => times(i) = times(i - 1) + math.max(1, ts + rnd.nextInt(21) - 10))
      val (t0, ds) = Siar.represent(times, ts)
      assert(Siar.restore(t0, ds, ts).toSeq == times.toSeq)
    }
  }

  test("single-timestamp sequences work") {
    val (t0, ds) = Siar.represent(Array(1234), 60)
    assert(t0 == 1234 && ds.isEmpty)
    assert(Siar.restore(t0, ds, 60).toSeq == Seq(1234))
  }

  test("deltas are interval deviations from Ts") {
    val times = Array(0, 250, 490, 700)
    val (_, ds) = Siar.represent(times, 240)
    assert(ds.toSeq == Seq(10, 0, -30))
  }
}
