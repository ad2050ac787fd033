package repro

import org.apache.spark.sql.SparkSession
import repro.core.Params

/** Synthetic network-constrained uncertain trajectories (this repo
  * reproduces VLDB'20 "Compression of Uncertain Trajectories in Road
  * Networks"; DK/CD/HZ-like datasets are synthesized per the Table 5/6
  * statistics — see DESIGN.md §2 for the substitution). Generators are
  * deterministic, so the DuckDB oracle sees identical input.
  */
object SynthData {

  /** Distributed NCUT dataset for a paper profile ("DK", "CD", "HZ"),
    * scaled by `sf`: sf = 1.0 ≈ tens of thousands of trajectories,
    * sf = 0.01 suits unit tests.
    */
  def uncertainTrajectories(
      spark: SparkSession,
      profile: String,
      sf: Double = 0.01,
  ): org.apache.spark.sql.Dataset[repro.traj.UTraj] = {
    val (netP, trajP, baseCount) = profiles(profile)
    val net = repro.network.RoadNetworkGen.generate(netP)
    val n = math.max(1, (baseCount * sf).toInt)
    repro.spark.UtcqSpark.generate(spark, net, trajP, n)
  }

  /** (network profile, trajectory profile, trajectory count at sf = 1). */
  def profiles(name: String): (repro.network.RoadNetworkGen.NetProfile,
      repro.traj.UncertainTrajGen.TrajProfile, Int) = name.toUpperCase match {
    case "DK" => (repro.network.RoadNetworkGen.DK, repro.traj.UncertainTrajGen.DK, 40000)
    case "CD" => (repro.network.RoadNetworkGen.CD, repro.traj.UncertainTrajGen.CD, 120000)
    case "HZ" => (repro.network.RoadNetworkGen.HZ, repro.traj.UncertainTrajGen.HZ, 60000)
    case other => throw new IllegalArgumentException(s"unknown dataset profile: $other")
  }

  /** Default parameters per dataset, mirroring §6.1: η_p = 1/512 (DK, CD) or
    * 1/2048 (HZ); pivots 2 on DK, 1 elsewhere.
    */
  def paramsFor(profile: String): Params = profile.toUpperCase match {
    case "DK" => Params(numPivots = 2)
    case "HZ" => Params(etaP = 1.0 / 2048)
    case _    => Params() // CD, at Table 7's defaults
  }
}
