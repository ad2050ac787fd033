package repro.spark

import org.apache.spark.SparkException
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
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
  *
  * The engines are built once per Dataset, as the paper builds StIU once
  * per compression: a single-entry memo keyed by the identity of `rows`
  * (plus `net`, `meta` and `params`) holds them as a persisted RDD whose
  * lineage is truncated, so a query ships a small task and reads no row.
  * The first query on each Dataset pays for the build; a query on another
  * Dataset replaces the memo, and one that finds a cached engine gone
  * rebuilds them.
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

  /** The engines of one Dataset: one [[QueryEngine]] per partition of
    * `rows`, persisted with its lineage truncated, and the network broadcast
    * they were built from.
    */
  private final class Engines(
      rows: Dataset[CompressedRow],
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      bNet: Broadcast[RoadNetwork],
      val rdd: RDD[QueryEngine],
  ) {
    def serves(rows: Dataset[CompressedRow], net: RoadNetwork, meta: DatasetMeta, params: Params): Boolean =
      (this.rows eq rows) && (this.net eq net) && this.meta == meta && this.params == params

    def release(): Unit =
      if (!rdd.sparkContext.isStopped) {
        rdd.unpersist(blocking = false)
        bNet.destroy()
      }
  }

  /** Name of every engines RDD in the Spark storage listing. */
  private[spark] val EnginesName = "UtcqSpark engines"

  /** The engines of the Dataset queried last. */
  private var memo: Option[Engines] = None

  /** The memo's engines if they serve these arguments; otherwise release
    * the memo and build new ones. Building reads `rows` lazily: the first
    * query's job assembles one StIU and engine per partition and caches
    * it, and after that job `localCheckpoint` cuts the RDD's lineage, so
    * later tasks neither read `rows` nor carry its plan.
    * `localCheckpoint` persists at MEMORY_AND_DISK, which is why
    * [[QueryEngine]] is serializable.
    */
  private def engines(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
  ): Engines = synchronized {
    memo.filter(_.serves(rows, net, meta, params)).getOrElse {
      memo.foreach(_.release())
      val bNet = rows.sparkSession.sparkContext.broadcast(net)
      val grid = Grid.over(net, params.gridCells)
      val slotSeconds = params.slotSeconds
      val rdd = rows.rdd.mapPartitions { it =>
        val part = it.toVector
        val idx = StIU.assemble(grid, slotSeconds, part.map(r => (r.temporal.toVector, r.refTuples.toVector, Vector.empty)))
        Iterator.single(new QueryEngine(bNet.value, meta, idx, part.map(r => r.ct.id -> r.ct).toMap))
      }.setName(EnginesName).localCheckpoint()
      val e = new Engines(rows, net, meta, params, bNet, rdd)
      memo = Some(e)
      e
    }
  }

  /** Release `e` if it is still the memo. */
  private def forget(e: Engines): Unit = synchronized {
    if (memo.contains(e)) {
      e.release()
      memo = None
    }
  }

  /** Whether a job failed because a block of a locally checkpointed RDD is
    * gone: its executor was lost, or the RDD was unpersisted.
    */
  private def lostCheckpointBlock(e: Throwable): Boolean =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains("CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND"))

  /** Run `ask` on the engine of every partition of `rows` and collect the
    * answers: one job, whose tasks read the cached engines. The first query
    * on a Dataset pays for building them (see [[engines]]); a query whose
    * engines lost a block rebuilds them and asks once more.
    */
  private def onEngines[A: ClassTag](
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
  )(ask: QueryEngine => Iterable[A]): Array[A] = {
    def answer(e: Engines): Array[A] = e.rdd.mapPartitions(_.flatMap(ask)).collect()
    val e = engines(net, meta, params, rows)
    try answer(e)
    catch {
      case ex: SparkException if lostCheckpointBlock(ex) =>
        forget(e)
        answer(engines(net, meta, params, rows))
    }
  }

  /** Distributed probabilistic range query: every partition's engine
    * answers over its rows.
    */
  def rangeQuery(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      re: Rect,
      tq: Int,
      alpha: Double,
  ): Array[Long] =
    onEngines(net, meta, params, rows)(_.range(re, tq, alpha)).distinct

  /** Distributed probabilistic where query for one trajectory: engines
    * that do not hold the id answer nothing.
    */
  def whereQuery(
      net: RoadNetwork,
      meta: DatasetMeta,
      params: Params,
      rows: Dataset[CompressedRow],
      trajId: Long,
      t: Int,
      alpha: Double,
  ): Set[(Int, Int, Double)] =
    onEngines(net, meta, params, rows)(_.where(trajId, t, alpha)).toSet

  /** Distributed probabilistic when query for one trajectory: engines
    * that do not hold the id answer nothing.
    */
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
    onEngines(net, meta, params, rows)(_.when(trajId, vs, ve, rd, alpha)).toSet

  /** Convenience bundle for benches and jobs: build network + meta, then
    * generate/compress end-to-end.
    */
  final case class Pipeline(net: RoadNetwork, meta: DatasetMeta)

  def pipeline(
      netProfile: RoadNetworkGen.NetProfile,
      trajProfile: UncertainTrajGen.TrajProfile,
      params: Params,
  ): Pipeline = {
    val net = RoadNetworkGen.generate(netProfile)
    Pipeline(net, DatasetMeta.of(net, trajProfile.defaultInterval, params))
  }
}
