package repro.spark

import org.apache.spark.sql.Dataset
import repro.SparkSpec
import repro.core._
import repro.core.GroundTruth.Rect
import repro.index.Grid
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UTraj, UncertainTrajGen}

/** Distributed pipeline tests: generation, compression and queries all run
  * through Spark (Dataset encoders included).
  */
class SparkPipelineSpec extends SparkSpec {

  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val pipe = UtcqSpark.pipeline(RoadNetworkGen.CD, UncertainTrajGen.CD, params)
  private lazy val trajsDs = UtcqSpark.generate(spark, pipe.net, UncertainTrajGen.CD, 40).cache()
  private lazy val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajsDs).cache()

  /** One local engine over all 40 trajectories: the reference answers. */
  private lazy val localEngine: QueryEngine = {
    val trajs = trajsDs.collect()
    val store = trajs.map(t => t.id -> Compressor.compress(pipe.meta, params, t).ct).toMap
    val grid = Grid.over(pipe.net, params.gridCells)
    val parts = trajs.map(t => repro.index.StIU.buildFor(pipe.net, grid, pipe.meta, params, t, store(t.id)))
    new QueryEngine(pipe.net, pipe.meta, repro.index.StIU.assemble(grid, params.slotSeconds, parts.toSeq), store)
  }

  /** A where, a when and a range query about trajectory `t` on `ds` answer
    * like the local engine.
    */
  private def assertLikeLocal(ds: Dataset[UtcqSpark.CompressedRow], t: UTraj, alpha: Double): Unit = {
    val tq = t.times(t.times.length / 2)
    val l = PathOps.resolve(pipe.net, t.instances.head).mapped(t.numSamples / 2)
    val (x, y) = GroundTruth.locXY(pipe.net, l)
    val re = Rect(x - 2000, y - 2000, x + 2000, y + 2000)
    assert(UtcqSpark.whereQuery(pipe.net, pipe.meta, params, ds, t.id, tq, alpha) ==
      localEngine.where(t.id, tq, alpha), s"where traj ${t.id} alpha $alpha")
    assert(UtcqSpark.whenQuery(pipe.net, pipe.meta, params, ds, t.id, l.edge.from, l.edge.to, l.rd, alpha) ==
      localEngine.when(t.id, l.edge.from, l.edge.to, l.rd, alpha), s"when traj ${t.id} alpha $alpha")
    assert(UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, ds, re, tq, alpha).toSet ==
      localEngine.range(re, tq, alpha), s"range traj ${t.id} alpha $alpha")
  }

  private def enginesRdds: Int =
    spark.sparkContext.getPersistentRDDs.values.count(_.name == UtcqSpark.EnginesName)

  test("distributed generation equals local generation") {
    val dist = trajsDs.collect().sortBy(_.id)
    val local = UncertainTrajGen.dataset(pipe.net, UncertainTrajGen.CD, 40)
    dist.zip(local).foreach { case (a, b) =>
      assert(a.id == b.id)
      assert(a.times.toSeq == b.times.toSeq)
      assert(a.instances.map(_.edges.toSeq).toSeq == b.instances.map(_.edges.toSeq).toSeq)
    }
  }

  test("compressed rows survive the Dataset encoder round-trip") {
    val collected = rows.collect()
    assert(collected.length == 40)
    val locals = UncertainTrajGen.dataset(pipe.net, UncertainTrajGen.CD, 40).map(t => t.id -> t).toMap
    collected.foreach { row =>
      val back = Decompressor.decompress(pipe.meta, row.ct)
      val orig = locals(row.ct.id)
      assert(back.times.toSeq == orig.times.toSeq)
      assert(back.instances.map(_.edges.toSeq).toSeq == orig.instances.map(_.edges.toSeq).toSeq)
      assert(back.instances.map(_.tflags.toSeq).toSeq == orig.instances.map(_.tflags.toSeq).toSeq)
    }
  }

  test("distributed compression equals local compression bit-for-bit") {
    val collected = rows.collect().map(r => r.ct.id -> r.ct).toMap
    UncertainTrajGen.dataset(pipe.net, UncertainTrajGen.CD, 40).foreach { t =>
      val local = Compressor.compress(pipe.meta, params, t).ct
      val dist = collected(t.id)
      assert(dist.blobBits == local.blobBits, s"traj ${t.id}")
      assert(dist.blob.toSeq == local.blob.toSeq, s"traj ${t.id}")
    }
  }

  test("rows read back from parquet decode by themselves") {
    import spark.implicits._
    val dir = java.nio.file.Files.createTempDirectory("utcq-parquet")
    try {
      rows.write.mode("overwrite").parquet(dir.resolve("compressed").toString)
      val back = spark.read.parquet(dir.resolve("compressed").toString).as[UtcqSpark.CompressedRow].collect()
      val locals = UncertainTrajGen.dataset(pipe.net, UncertainTrajGen.CD, 40).map(t => t.id -> t).toMap
      assert(back.length == 40)
      back.foreach { row =>
        assert(row.ct.meta == pipe.meta)
        val dec = Decompressor.decompress(row.ct.meta, row.ct)
        assert(dec.times.toSeq == locals(row.ct.id).times.toSeq)
        assert(dec.instances.map(_.edges.toSeq).toSeq == locals(row.ct.id).instances.map(_.edges.toSeq).toSeq)
      }
    } finally {
      java.nio.file.Files.walk(dir).sorted(java.util.Comparator.reverseOrder()).forEach(p => java.nio.file.Files.delete(p))
    }
  }

  test("totalSizes aggregates per-component sizes") {
    val total = UtcqSpark.totalSizes(rows)
    val sum = rows.collect().map(_.ct.sizes).reduce(_ + _)
    assert(total == sum)
  }

  test("distributed range query equals the local engine") {
    val trajs = trajsDs.collect().sortBy(_.id)
    val localStore = trajs.map(t => t.id -> Compressor.compress(pipe.meta, params, t).ct).toMap
    val grid = Grid.over(pipe.net, params.gridCells)
    val parts = trajs.map(t => repro.index.StIU.buildFor(pipe.net, grid, pipe.meta, params, t, localStore(t.id)))
    val engine = new QueryEngine(pipe.net, pipe.meta,
      repro.index.StIU.assemble(grid, params.slotSeconds, parts.toSeq), localStore)

    val (xs, ys) = (pipe.net.xs, pipe.net.ys)
    def around(v: Int) = Rect(xs(v) - 2000, ys(v) - 2000, xs(v) + 2000, ys(v) + 2000)
    val parted = rows.repartition(3).cache()
    for (alpha <- Seq(0.0, 0.1, 0.3, 0.5, 1.0); t <- trajs.take(3)) {
      val tq = t.times(t.times.length / 2)
      val v = t.instances.head.sv
      // A rectangle on the trajectory and one at the vertex farthest from it.
      val far = xs.indices.maxBy(u => math.hypot(xs(u) - xs(v), ys(u) - ys(v)))
      Seq(around(v), around(far)).foreach { re =>
        val range = UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, parted, re, tq, alpha)
        assert(range.toSet == engine.range(re, tq, alpha), s"range $re traj ${t.id} alpha $alpha")
      }
      assert(UtcqSpark.whereQuery(pipe.net, pipe.meta, params, parted, t.id, tq, alpha) ==
        engine.where(t.id, tq, alpha), s"where traj ${t.id} alpha $alpha")
      val l = PathOps.resolve(pipe.net, t.instances.head).mapped(t.numSamples / 2)
      assert(UtcqSpark.whenQuery(pipe.net, pipe.meta, params, parted, t.id, l.edge.from, l.edge.to, l.rd, alpha) ==
        engine.when(t.id, l.edge.from, l.edge.to, l.rd, alpha), s"when traj ${t.id} alpha $alpha")
    }
    parted.unpersist()
  }

  test("distributed where query equals ground truth over decompressed data") {
    val trajs = trajsDs.collect()
    trajs.take(5).foreach { t =>
      val dec = Decompressor.decompress(pipe.meta, Compressor.compress(pipe.meta, params, t).ct)
      val tq = t.times(t.times.length / 2)
      val got = UtcqSpark.whereQuery(pipe.net, pipe.meta, params, rows, t.id, tq, 0.2)
      val exp = GroundTruth.where(pipe.net, dec, tq, 0.2)
      assert(got == exp, s"traj ${t.id}")
    }
  }

  test("distributed when query equals ground truth over decompressed data") {
    val trajs = trajsDs.collect()
    trajs.take(5).foreach { t =>
      val dec = Decompressor.decompress(pipe.meta, Compressor.compress(pipe.meta, params, t).ct)
      val inst = dec.instances.head
      val l = PathOps.resolve(pipe.net, inst).mapped(inst.numSamples / 2)
      val got = UtcqSpark.whenQuery(pipe.net, pipe.meta, params, rows, t.id, l.edge.from, l.edge.to, l.rd, 0.2)
      val exp = GroundTruth.when(pipe.net, dec, l.edge.from, l.edge.to, l.rd, 0.2)
      assert(got == exp, s"traj ${t.id}")
    }
  }

  test("queries interleaved on two Datasets each answer like the local engine") {
    val parted = rows.repartition(3).cache()
    for (alpha <- Seq(0.0, 0.3, 0.6); t <- trajsDs.collect().sortBy(_.id).take(4); ds <- Seq(rows, parted))
      assertLikeLocal(ds, t, alpha)
    parted.unpersist()
  }

  test("after queries on three Datasets at most one engines RDD stays persisted") {
    val t = trajsDs.collect().minBy(_.id)
    Seq(rows, rows.repartition(2), rows.repartition(3)).foreach(assertLikeLocal(_, t, 0.2))
    assert(enginesRdds <= 1, s"$enginesRdds engines RDDs persisted")
  }

  test("SynthData.uncertainTrajectories produces the documented profiles") {
    val ds: org.apache.spark.sql.Dataset[UTraj] = repro.SynthData.uncertainTrajectories(spark, "CD", 0.0002)
    val collected = ds.collect()
    assert(collected.length == 24) // 120000 * 0.0002
    collected.foreach(t => assert(t.defaultInterval == 10))
    intercept[IllegalArgumentException](repro.SynthData.profiles("nope"))
  }

  test("compression shrinks the dataset end-to-end (Spark path)") {
    import trajsDs.sparkSession.implicits._
    val original = trajsDs.map(t => Sizes.original(t)).reduce(_ + _)
    val compressed = UtcqSpark.totalSizes(rows)
    assert(compressed.total < original.total / 3,
      s"expected >3x compression, got ${original.total.toDouble / compressed.total}")
  }

  // Last: it drops every cached block of the session, this suite's included.
  test("queries answer like the local engine after every persisted RDD is unpersisted") {
    val ts = trajsDs.collect().sortBy(_.id).take(3)
    assertLikeLocal(rows, ts(0), 0.2) // builds and checkpoints the engines
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    assert(enginesRdds == 0)
    ts.foreach(assertLikeLocal(rows, _, 0.2))
    assert(enginesRdds == 1, "the engines were not rebuilt")
  }
}
