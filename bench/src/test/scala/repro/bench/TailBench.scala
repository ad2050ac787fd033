package repro.bench

import repro.SparkSpec
import repro.core._
import repro.index.{Grid, StIU}
import repro.network.RoadNetworkGen
import repro.traj.UncertainTrajGen

/** Write-path throughput at Table 5's instance tails (DK reaches 434
  * instances per trajectory, HZ 1,500), where the score matrix and reference
  * selection grow with the square of the instance count. The HZ profile
  * draws counts around 200 (up to 500) instead of 13 (up to 80); for each
  * of five profile seeds, twelve trajectories go through
  * `Compressor.compress` and `StIU.buildFor`, and the bench prints
  * instances per second per seed with the median and spread.
  *
  * {{{
  * sbt "bench/testOnly repro.bench.TailBench"
  * }}}
  */
class TailBench extends SparkSpec {

  private val seeds = 1 to 5
  private val perSeed = 12
  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.HZ)
  private lazy val params = Params()
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.HZ.defaultInterval, params)
  private lazy val grid = Grid.over(net, params.gridCells)

  private def tail(seed: Int) = UncertainTrajGen.dataset(net,
    UncertainTrajGen.HZ.copy(meanInstances = 200.0, maxInstances = 500, seed = 7000L + seed), perSeed)

  /** Instances compressed and indexed per second over `trajs`. */
  private def instPerSec(trajs: Seq[repro.traj.UTraj]): Double = {
    val t0 = System.nanoTime()
    trajs.foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      StIU.buildFor(net, grid, meta, params, t, ct)
    }
    trajs.map(_.instances.length).sum / ((System.nanoTime() - t0) / 1e9)
  }

  test("tail profile: compress + buildFor instances/s at hundreds of instances per trajectory") {
    val data = seeds.map(tail)
    instPerSec(tail(0)) // JIT warm-up
    println("=== Tail profile (HZ, ~200 instances per trajectory) ===")
    val rates = seeds.zip(data).map { case (seed, trajs) =>
      val counts = trajs.map(_.instances.length)
      val rate = instPerSec(trajs)
      println(f"seed $seed: ${counts.sum} instances (mean ${counts.sum.toDouble / counts.size}%.1f, " +
        f"max ${counts.max}) at $rate%.0f inst/s")
      rate
    }.sorted
    val median = rates(rates.size / 2)
    val iqr = rates(rates.size * 3 / 4) - rates(rates.size / 4)
    println(f"median $median%.0f inst/s, min ${rates.head}%.0f, max ${rates.last}%.0f, IQR/median ${iqr / median}%.3f")
    assert(data.flatten.map(_.instances.length).sum.toDouble / data.flatten.size >= 100,
      "the profile must reach the hundreds of instances of Table 5's tails")
  }
}
