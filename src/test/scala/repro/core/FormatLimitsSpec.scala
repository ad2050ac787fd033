package repro.core

import repro.SparkSpec
import repro.network.RoadNetworkGen
import repro.traj.{Instance, UTraj, UncertainTrajGen}

/** The blob format's limits (16-bit n and N, 17-bit t0, the Exp-Golomb
  * domain of SIAR deviations): for each, the last value `Compressor.compress`
  * accepts and the first it rejects, up front and with the trajectory named.
  */
class FormatLimitsSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1)
  private lazy val meta = DatasetMeta.of(net, 10, params)
  private lazy val edge = UncertainTrajGen.randomWalk(net, new scala.util.Random(3), 1).head

  /** One instance on one edge with `n` samples (n − 1 repeat markers). */
  private def onEdge(n: Int, prob: Double = 1.0): Instance =
    Instance(prob, edge.from, edge.outNo +: Array.fill(n - 1)(0), Array.fill(n)(true),
      Array.tabulate(n)(i => i.toDouble / n))

  private def traj(times: Array[Int], instances: Array[Instance]): UTraj =
    UTraj(90L, times, 10, instances)

  private def roundTrips(m: DatasetMeta, t: UTraj): Unit = {
    val back = Decompressor.decompress(m, Compressor.compress(m, params, t).ct)
    assert(back.times.toSeq == t.times.toSeq)
    assert(back.instances.map(_.edges.toSeq).toSeq == t.instances.map(_.edges.toSeq).toSeq)
  }

  private def rejected(m: DatasetMeta, t: UTraj, what: String): Unit = {
    val e = intercept[IllegalArgumentException](Compressor.compress(m, params, t))
    assert(e.getMessage.startsWith(s"trajectory ${t.id}:") && e.getMessage.contains(what), e.getMessage)
  }

  test("n: 65,535 samples compress and round-trip, 65,536 are rejected") {
    val n = (1 << 16) - 1
    roundTrips(meta, traj(Array.tabulate(n)(_ * 10), Array(onEdge(n))))
    rejected(meta, traj(Array.tabulate(n + 1)(_ * 10), Array(onEdge(n + 1))), s"${n + 1} samples")
  }

  test("N: 65,535 instances pass the check, 65,536 are rejected before reference selection") {
    val n = (1 << 16) - 1
    val one = onEdge(1, 1.0 / (n + 1))
    Compressor.requireEncodable(meta, traj(Array(0), Array.fill(n)(one)))
    // An N × N score matrix at this N would not fit in memory: the check comes first.
    rejected(meta, traj(Array(0), Array.fill(n + 1)(one)), s"${n + 1} instances")
  }

  test("t0: 2^17 − 1 compresses and round-trips, 2^17 and −1 are rejected") {
    val last = (1 << meta.t0Bits) - 1
    roundTrips(meta, traj(Array(last, last + 10), Array(onEdge(2))))
    rejected(meta, traj(Array(last + 1, last + 11), Array(onEdge(2))), s"t0 = ${last + 1}")
    rejected(meta, traj(Array(-1, 9), Array(onEdge(2))), "t0 = -1")
  }

  test("SIAR deviation: ±(2^31 − 2) compress and round-trip, ±(2^31 − 1) and −2^31 are rejected") {
    val max = ExpGolomb.MaxAbs
    // Δ = t1 − t0 − ts.
    roundTrips(meta, traj(Array(0, meta.ts - max), Array(onEdge(2))))
    roundTrips(meta.copy(ts = 1), traj(Array(0, Int.MaxValue), Array(onEdge(2))))
    rejected(meta, traj(Array(0, Int.MinValue + 1 + meta.ts), Array(onEdge(2))), s"${-max - 1}")
    rejected(meta.copy(ts = 0), traj(Array(0, Int.MaxValue), Array(onEdge(2))), s"${max + 1}")
    rejected(meta, traj(Array(0, Int.MinValue + meta.ts), Array(onEdge(2))), s"${Int.MinValue}")
    // A deviation is the true difference, not one wrapped around Int.
    rejected(meta.copy(ts = 1), traj(Array(0, Int.MaxValue, Int.MinValue), Array(onEdge(3))), "after sample 1")
  }
}
