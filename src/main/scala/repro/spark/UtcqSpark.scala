package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core._
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.{RoadNetwork, RoadNetworkGen}
import repro.traj.{UTraj, UncertainTrajGen}

/** Distributed UTCQ: generation, compression, StIU materialization, and
  * query filtering as a Dataset/DataFrame job.
  *
  * Layering (per DESIGN.md): the paper's contribution is a compression
  * framework plus an index, not a Catalyst rewrite, so the natural Spark
  * extension point is the Dataset layer — per-trajectory kernels mapped
  * over partitioned data, with the StIU index materialized both inline
  * (per compressed row, for partition-local query evaluation) and as
  * exploded DataFrames (for Catalyst-filtered candidate selection).
  */
object UtcqSpark {

  /** A compressed trajectory (its blob and the widths that wrote it) with
    * its StIU index entries inline.
    */
  final case class CompressedRow(
      ct: CompressedTraj,
      temporal: Seq[StIU.TemporalEntry],
      refTuples: Seq[StIU.RefTuple],
      nonRefTuples: Seq[StIU.NonRefTuple],
  )

  /** Generate an NCUT dataset as a distributed Dataset: each trajectory is
    * a deterministic function of its id, so the generator fans out over a
    * Spark range with a broadcast road network.
    */
  def generate(
      spark: SparkSession,
      net: RoadNetwork,
      profile: UncertainTrajGen.TrajProfile,
      numTrajectories: Int,
  ): Dataset[UTraj] = {
    import spark.implicits._
    val bNet = spark.sparkContext.broadcast(net)
    spark.range(numTrajectories.toLong).mapPartitions { it =>
      val n = bNet.value
      it.map(id => UncertainTrajGen.trajectory(n, profile, id))
    }
  }

  /** Compress a Dataset of uncertain trajectories and build their StIU
    * entries, partition by partition as the input is laid out: each
    * trajectory is compressed on its own with an RNG seeded from
    * (params.seed, id), so no partitioning can change a blob.
    */
  def compress(
      spark: SparkSession,
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      trajs: Dataset[UTraj],
  ): Dataset[CompressedRow] = {
    import spark.implicits._
    val bNet = spark.sparkContext.broadcast(net)
    val grid = Grid.over(net, params.gridCells)
    trajs.mapPartitions { it =>
      val n = bNet.value
      it.map { traj =>
        val res = Compressor.compress(meta, params, traj)
        val (te, rt, nt) = StIU.buildFor(n, grid, meta, params, traj, res.ct)
        CompressedRow(res.ct, te, rt, nt)
      }
    }
  }

  /** The StIU index as exploded DataFrames for Catalyst-side filtering:
    * (temporal, refTuples, nonRefTuples).
    */
  def indexFrames(spark: SparkSession, rows: Dataset[CompressedRow]): (DataFrame, DataFrame, DataFrame) = {
    import spark.implicits._
    val temporal = rows.flatMap(_.temporal).toDF()
    val refT = rows.flatMap(_.refTuples).toDF()
    val nonRefT = rows.flatMap(_.nonRefTuples).toDF()
    (temporal, refT, nonRefT)
  }

  /** Total compressed sizes (per component) of a dataset. */
  def totalSizes(rows: Dataset[CompressedRow]): Sizes = {
    import rows.sparkSession.implicits._
    rows.map(_.ct.sizes).reduce(_ + _)
  }

  private def engineFor(
      net: RoadNetwork, meta: DatasetMeta, grid: Grid, slotSeconds: Int, row: CompressedRow): QueryEngine = {
    val idx = StIU.assemble(grid, slotSeconds,
      Seq((row.temporal.toVector, row.refTuples.toVector, row.nonRefTuples.toVector)))
    new QueryEngine(net, meta, idx, Map(row.ct.id -> row.ct))
  }

  /** Distributed probabilistic range query: index-filter candidates with
    * Catalyst predicates over the inline StIU entries, then evaluate each
    * surviving trajectory partition-locally with the lemma-based engine.
    */
  def rangeQuery(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      re: Rect,
      tq: Int,
      alpha: Double,
  ): Array[Long] = {
    import rows.sparkSession.implicits._
    val bNet = rows.sparkSession.sparkContext.broadcast(net)
    val grid = Grid.over(net, params.gridCells)
    val slot = tq / params.slotSeconds
    val cells = grid.cellsOf(re).toSet
    rows
      .filter { r =>
        r.temporal.exists(_.slot == slot) && r.refTuples.exists(t => cells.contains(t.cell))
      }
      .mapPartitions { it =>
        it.flatMap { row =>
          engineFor(bNet.value, meta, grid, params.slotSeconds, row).range(re, tq, alpha)
        }
      }
      .collect()
      .distinct
  }

  /** Distributed probabilistic where query for one trajectory. */
  def whereQuery(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      trajId: Long,
      t: Int,
      alpha: Double,
  ): Set[(Int, Int, Double)] = {
    import rows.sparkSession.implicits._
    val bNet = rows.sparkSession.sparkContext.broadcast(net)
    val grid = Grid.over(net, params.gridCells)
    rows
      .filter(_.ct.id == trajId)
      .mapPartitions { it =>
        it.flatMap { row =>
          engineFor(bNet.value, meta, grid, params.slotSeconds, row).where(trajId, t, alpha)
        }
      }
      .collect()
      .toSet
  }

  /** Distributed probabilistic when query for one trajectory. */
  def whenQuery(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      trajId: Long,
      vs: Int,
      ve: Int,
      rd: Double,
      alpha: Double,
  ): Set[Double] = {
    import rows.sparkSession.implicits._
    val bNet = rows.sparkSession.sparkContext.broadcast(net)
    val grid = Grid.over(net, params.gridCells)
    rows
      .filter(_.ct.id == trajId)
      .mapPartitions { it =>
        it.flatMap { row =>
          engineFor(bNet.value, meta, grid, params.slotSeconds, row).when(trajId, vs, ve, rd, alpha)
        }
      }
      .collect()
      .toSet
  }

  /** Convenience bundle for benches and jobs: build network + meta, then
    * generate/compress end-to-end.
    */
  final case class Pipeline(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      grid: Grid,
  )

  def pipeline(
      netProfile: RoadNetworkGen.NetProfile,
      trajProfile: UncertainTrajGen.TrajProfile,
      params: Params,
  ): Pipeline = {
    val net = RoadNetworkGen.generate(netProfile)
    val meta = DatasetMeta.of(net, trajProfile.defaultInterval, params)
    Pipeline(net, meta, params, Grid.over(net, params.gridCells))
  }
}
