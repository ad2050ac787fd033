package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.{RoadNetwork, RoadNetworkGen}
import repro.traj.{UTraj, UncertainTrajGen}
import scala.reflect.ClassTag

/** Distributed UTCQ: generation, compression, StIU materialization, and
  * queries as Spark jobs.
  *
  * Layering (per DESIGN.md): the paper's contribution is a compression
  * framework plus an index, not a Catalyst rewrite, so the natural Spark
  * extension point is the Dataset layer — per-trajectory kernels mapped
  * over partitioned data, with each row's StIU entries inline. A query runs
  * the local [[QueryEngine]] once per partition, over an index assembled
  * from that partition's rows, and unions the answers: local and
  * distributed queries share one query path.
  */
object UtcqSpark {

  /** A compressed trajectory (its blob and the widths that wrote it) with
    * its StIU index entries inline. `nonRefTuples` is always empty (see
    * [[StIU.NonRefTuple]]); the field stays only because the benchmark under
    * `utcqbench/` builds rows with it.
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

  /** Total compressed sizes (per component) of a dataset. */
  def totalSizes(rows: Dataset[CompressedRow]): Sizes = {
    import rows.sparkSession.implicits._
    rows.map(_.ct.sizes).reduce(_ + _)
  }

  /** Run `ask` on one local [[QueryEngine]] per partition of `rows` and
    * collect the answers. Each engine indexes the partition's rows that
    * `keep` selects; a partition that keeps no row answers nothing.
    * `rows.rdd` is planned once per Dataset, so repeated queries on a cached
    * Dataset skip Catalyst planning.
    */
  private def onEngines[A: ClassTag](
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      keep: CompressedRow => Boolean,
  )(ask: QueryEngine => Iterable[A]): Array[A] = {
    val bNet = rows.sparkSession.sparkContext.broadcast(net)
    val grid = Grid.over(net, params.gridCells)
    try {
      rows.rdd.mapPartitions { it =>
        val kept = it.filter(keep).toVector
        if (kept.isEmpty) Iterator.empty
        else {
          val idx = StIU.assemble(grid, params.slotSeconds,
            kept.map(r => (r.temporal.toVector, r.refTuples.toVector, Vector.empty)))
          ask(new QueryEngine(bNet.value, meta, idx, kept.map(r => r.ct.id -> r.ct).toMap)).iterator
        }
      }.collect()
    } finally bNet.destroy()
  }

  /** Distributed probabilistic range query: every partition's engine
    * answers over its rows with a temporal entry in the query's slot.
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
    val slot = tq / params.slotSeconds
    onEngines(net, meta, params, rows, _.temporal.exists(_.slot == slot))(_.range(re, tq, alpha)).distinct
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
  ): Set[(Int, Int, Double)] =
    onEngines(net, meta, params, rows, _.ct.id == trajId)(_.where(trajId, t, alpha)).toSet

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
  ): Set[Double] =
    onEngines(net, meta, params, rows, _.ct.id == trajId)(_.when(trajId, vs, ve, rd, alpha)).toSet

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
