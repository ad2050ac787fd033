package repro.core

import repro.SparkSpec
import repro.core.RefFactors._
import repro.traj.{Instance, PathOps}
import repro.util.{BitReader, BitWriter}
import scala.util.Random

/** Pins the paper's worked examples: Table 2/3 (representation), §4.1's
  * SIAR + Exp-Golomb bit counts, Table 4 (referential representation),
  * Example 1 (FJD), Example 2 (Algorithm 1), and the §4.4 compression-ratio
  * arithmetic.
  */
class PaperExamplesSpec extends SparkSpec {
  import PaperFixture._

  // ---------------------------------------------------------------- Table 3

  /** The vertices an instance's path visits: its SV, then each edge's end. */
  private def pathVertices(in: Instance): Seq[Int] = in.sv +: PathOps.resolve(net, in).edges.map(_.to).toSeq

  test("Table 3: instances resolve to the paper's paths") {
    val p1 = pathVertices(tu11)
    assert(p1 == Seq(v1, v2, v3, v4, v5, v6, v7, v8))
    val p2 = pathVertices(tu12)
    assert(p2 == Seq(v1, v2, v10, v4, v5, v6, v7, v8))
    val p3 = pathVertices(tu13)
    assert(p3 == Seq(v1, v2, v3, v4, v5, v6, v7, v8, v9))
  }

  test("Table 3: stored T' drops the first and last bits") {
    assert(Compressor.storedTf(tu11.tflags).toSeq == Seq(false, true, false, true, true, true, true))
    assert(Compressor.storedTf(tu12.tflags).toSeq == Seq(true, false, false, true, true, true, true))
    assert(Compressor.storedTf(tu13.tflags).toSeq == Seq(false, true, false, true, true, true, true))
  }

  test("Table 3: restoring stored T' reproduces the original") {
    Seq(tu11, tu12, tu13).foreach { in =>
      assert(Compressor.restoreTf(Compressor.storedTf(in.tflags), in.edges.length).toSeq ==
        in.tflags.toSeq)
    }
  }

  test("Table 3: each instance carries 7 mapped locations") {
    Seq(tu11, tu12, tu13).foreach(in => assert(in.numSamples == 7))
  }

  // ----------------------------------------------------------------- SIAR

  test("SIAR represents the Fig. 2 time sequence as <5:03:25, 0, 1, 0, -1, 0, 0>") {
    val (t0, deltas) = Siar.represent(times, defaultInterval)
    assert(t0 == t(5, 3, 25))
    assert(deltas.toSeq == Seq(0, 1, 0, -1, 0, 0))
  }

  test("SIAR restore is exact") {
    val (t0, deltas) = Siar.represent(times, defaultInterval)
    assert(Siar.restore(t0, deltas, defaultInterval).toSeq == times.toSeq)
  }

  // ----------------------------------------------- improved Exp-Golomb §4.4

  test("improved Exp-Golomb encodes the example deltas as 0,1000,0,1010,0,0") {
    def code(d: Int): String = {
      val w = new BitWriter
      ExpGolomb.encode(d, w)
      val v = w.toBitVec
      (0 until v.length).map(i => if (v(i)) '1' else '0').mkString
    }
    assert(code(0) == "0")
    assert(code(1) == "1000")
    assert(code(-1) == "1010")
  }

  test("paper arithmetic: T(Tu1) takes 17 + 12 = 29 bits (ratio 7.72)") {
    val (_, deltas) = Siar.represent(times, defaultInterval)
    val w = new BitWriter
    deltas.foreach(ExpGolomb.encode(_, w))
    assert(w.length == 12)
    val totalBits = 17 + w.length
    assert(totalBits == 29)
    val ratio = 32.0 * 7 / totalBits
    assert(math.abs(ratio - 7.72) < 0.01)
  }

  test("TED time pairs of the Fig. 2 sequence keep 6 pairs (ratio 1.29)") {
    val pairs = repro.baseline.TedCompressor.timePairs(times)
    assert(pairs.map(_._1) == Vector(0, 1, 2, 3, 4, 6))
    val ratio = 32.0 * 7 / ((17 + 12) * pairs.length)
    assert(math.abs(ratio - 1.29) < 0.01)
  }

  test("TED time pairs restore the original sequence") {
    val pairs = repro.baseline.TedCompressor.timePairs(times)
    assert(repro.baseline.TedCompressor.restoreTimes(pairs, 7).toSeq == times.toSeq)
  }

  // --------------------------------------------------------------- Table 4

  test("Table 4: Com_E(Nref11, Ref1) = <(0,1,1),(2,7)>") {
    val fs = factorizeE(tu11.edges, tu12.edges)
    assert(fs == Vector(Slm(0, 1, 1), Sl(2, 7)))
  }

  test("Table 4: Com_E(Nref12, Ref1) = <(0,8,2)>") {
    val fs = factorizeE(tu11.edges, tu13.edges)
    assert(fs == Vector(Slm(0, 8, 2)))
  }

  test("Table 4: Com_D(Nref11) is empty, Com_D(Nref12) = <(6, 0.5)>") {
    val pddp = Pddp(1.0 / 128)
    val ref = tu11.dists.map(pddp.quantize)
    assert(factorizeD(ref, tu12.dists.map(pddp.quantize)).isEmpty)
    val f = factorizeD(ref, tu13.dists.map(pddp.quantize))
    assert(f == Vector(DFactor(6, pddp.quantize(0.5))))
  }

  test("Table 4: Com_T'(Nref11) = <(1,2),(3,4)>, Com_T'(Nref12) is empty") {
    val ref = Compressor.storedTf(tu11.tflags)
    val com12 = factorizeTf(ref, Compressor.storedTf(tu12.tflags))
    assert(com12.factors.map(f => (f.s, f.l)) == Vector((1, 2), (3, 4)))
    assert(!com12.explicitMode)
    val com13 = factorizeTf(ref, Compressor.storedTf(tu13.tflags))
    assert(com13.factors.isEmpty)
  }

  test("Table 4 factors reconstruct the originals") {
    assert(reconstructE(tu11.edges, factorizeE(tu11.edges, tu12.edges)).toSeq == tu12.edges.toSeq)
    assert(reconstructE(tu11.edges, factorizeE(tu11.edges, tu13.edges)).toSeq == tu13.edges.toSeq)
    val ref = Compressor.storedTf(tu11.tflags)
    assert(reconstructTf(ref, factorizeTf(ref, Compressor.storedTf(tu12.tflags))).toSeq ==
      Compressor.storedTf(tu12.tflags).toSeq)
  }

  // ----------------------------------------------------- §4.3 pivots / FJD

  test("§4.3: pivot representation Com_E(Tu11, piv=Tu13) = <(0,8),(5,1)>") {
    val com = Pivots.represent(tu13.edges, tu11.edges)
    assert(com.factors == Vector(Some((0, 8)), Some((5, 1))))
  }

  test("§4.3: pivot representation Com_E(Tu12, piv=Tu13) = <(0,1),(0,1),(2,6),(5,1)>") {
    val com = Pivots.represent(tu13.edges, tu12.edges)
    assert(com.factors == Vector(Some((0, 1)), Some((0, 1)), Some((2, 6)), Some((5, 1))))
  }

  test("§4.3 case B: an absent outgoing edge number becomes an omitted factor") {
    // E(Tu14) = <3,2,1,2,2>: 3 does not occur in E(Tu13).
    val com = Pivots.represent(tu13.edges, Array(3, 2, 1, 2, 2))
    assert(com.factors.head.isEmpty)
    assert(com.h == com.factors.length)
  }

  test("Example 1: per-factor sims are 1/8, 1/8, 3/4, 1 and FJD = 1/2") {
    val comW = Pivots.represent(tu13.edges, tu11.edges) // Com_E(Tu11, piv1)
    val comV = Pivots.represent(tu13.edges, tu12.edges) // Com_E(Tu12, piv1)
    val sims = comV.factors.map(f => Pivots.factorSim(f.get, comW))
    assert(sims == Vector(0.125, 0.125, 0.75, 1.0))
    assert(Pivots.fjd(comW, comV) == 0.5)
  }

  test("Example 2: Algorithm 1 on the paper's score matrix selects Tu11 with Rrs {Tu12, Tu13}") {
    val sm = Array(
      Array(0.0, 3.0 / 8, 1.0 / 3),
      Array(7.0 / 80, 0.0, 1.0 / 30),
      Array(1.0 / 40, 1.0 / 80, 0.0))
    val a = RefSelect.select(sm)
    assert(a.refs == Vector(0))
    assert(a.rrs(0) == Vector(1, 2))
    assert(a.refOf == Map(1 -> 0, 2 -> 0))
  }

  test("Algorithm 1: instances with zero scores become references without Rrs") {
    val sm = Array.fill(3, 3)(0.0)
    val a = RefSelect.select(sm)
    assert(a.refs.toSet == Set(0, 1, 2))
    assert(a.refOf.isEmpty)
  }

  // -------------------------------------------- §4.4 binary factor encoding

  test("(S,L,M) binary encoding round-trips the Table 4 factor lists") {
    val lay = ELayout(tu11.edges.length, meta.symBits)
    Seq(tu12.edges, tu13.edges).foreach { target =>
      val fs = factorizeE(tu11.edges, target)
      val w = new BitWriter
      encodeE(fs, lay, w)
      val back = decodeE(lay, new BitReader(w.toBitVec))
      assert(back == fs)
    }
  }

  test("case B factor (S=|ref|, M) encodes and decodes") {
    val ref = Array(1, 2, 1)
    val target = Array(3, 1, 2) // leading 3 absent from ref starts a case-B factor
    val fs = factorizeE(ref, target)
    assert(fs.exists { case Sm(3) => true; case _ => false })
    val lay = ELayout(ref.length, 3)
    val w = new BitWriter
    encodeE(fs, lay, w)
    assert(decodeE(lay, new BitReader(w.toBitVec)) == fs)
    assert(reconstructE(ref, fs).toSeq == target.toSeq)
  }

  // -------------------------------------- end-to-end compression of Fig. 2

  test("compressing Tu1 round-trips (η-bounded on D and p)") {
    val res = Compressor.compress(meta, params, tu1)
    val back = Decompressor.decompress(meta, res.ct)
    assert(back.times.toSeq == tu1.times.toSeq)
    assert(back.instances.length == 3)
    tu1.instances.zip(back.instances).foreach { case (orig, dec) =>
      assert(dec.sv == orig.sv)
      assert(dec.edges.toSeq == orig.edges.toSeq)
      assert(dec.tflags.toSeq == orig.tflags.toSeq)
      orig.dists.zip(dec.dists).foreach { case (a, b) => assert(math.abs(a - b) <= 1.0 / 128) }
      assert(math.abs(dec.prob - orig.prob) <= 1.0 / 512)
    }
  }

  test("compressing Tu1 beats the uncompressed baseline") {
    val res = Compressor.compress(meta, params, tu1)
    val orig = Sizes.original(tu1)
    assert(res.ct.sizes.total < orig.total)
  }

  test("reference selection on Tu1 picks the high-probability instance as reference") {
    val res = Compressor.compress(meta, params, tu1)
    // Tu11 (p = .75) should be a reference; with SV shared it can represent
    // the other two (exact Rrs membership depends on the pivot draw).
    assert(res.assignment.refs.contains(0))
  }

  test("compression is deterministic in (params.seed, traj.id)") {
    val a = Compressor.compress(meta, params, tu1)
    val b = Compressor.compress(meta, params, tu1)
    assert(a.ct.blobBits == b.ct.blobBits)
    assert(a.ct.blob.toSeq == b.ct.blob.toSeq)
    val c = Compressor.compress(meta, params.copy(seed = 43L), tu1)
    // a different seed may pick different pivots but must stay lossless
    val back = Decompressor.decompress(meta, c.ct)
    assert(back.instances.map(_.edges.toSeq).toSeq == tu1.instances.map(_.edges.toSeq).toSeq)
  }

  test("probabilities of Tu1 sum to 1") {
    assert(math.abs(tu1.instances.map(_.prob).sum - 1.0) < 1e-9)
  }

  test("random different-seed compressions of Tu1 stay lossless on E/T'/T") {
    val rnd = new Random(7)
    (1 to 10).foreach { _ =>
      val p = params.copy(seed = rnd.nextLong())
      val back = Decompressor.decompress(meta, Compressor.compress(meta, p, tu1).ct)
      assert(back.times.toSeq == tu1.times.toSeq)
      back.instances.zip(tu1.instances).foreach { case (dec, orig) =>
        assert(dec.edges.toSeq == orig.edges.toSeq)
        assert(dec.tflags.toSeq == orig.tflags.toSeq)
      }
    }
  }
}
