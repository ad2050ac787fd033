package repro.spark

import repro.SparkSpec
import repro.core._
import repro.core.GroundTruth.Rect
import repro.index.Grid
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UTraj, UncertainTrajGen}

/** Distributed pipeline tests: generation, compression, index frames, and
  * query filtering all run through Spark (Dataset encoders included).
  */
class SparkPipelineSpec extends SparkSpec {

  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val pipe = UtcqSpark.pipeline(RoadNetworkGen.CD, UncertainTrajGen.CD, params)
  private lazy val trajsDs = UtcqSpark.generate(spark, pipe.net, UncertainTrajGen.CD, 40).cache()
  private lazy val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajsDs).cache()

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

  test("index frames expose the StIU entries relationally") {
    val (te, rt) = UtcqSpark.indexFrames(spark, rows)
    assert(te.columns.toSet == Set("trajId", "slot", "tStart", "tNo", "tPos"))
    assert(rt.columns.toSet ==
      Set("trajId", "cell", "refSlot", "fvId", "fvNo", "dPos", "pTotal", "pMax"))
    assert(te.count() > 0 && rt.count() > 0)
    // Catalyst-side filtering: temporal candidates of one slot.
    val anySlot = te.select("slot").head().getInt(0)
    val cands = te.filter(te("slot") === anySlot).select("trajId").distinct().count()
    assert(cands >= 1)
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

    val t = trajs.head
    val tq = t.times(t.times.length / 2)
    val v = t.instances.head.sv
    val re = Rect(pipe.net.xs(v) - 2000, pipe.net.ys(v) - 2000, pipe.net.xs(v) + 2000, pipe.net.ys(v) + 2000)
    val dist = UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, rows, re, tq, 0.3).toSet
    val local = engine.range(re, tq, 0.3)
    assert(dist == local)
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
      val locs = PathOps.mappedLocations(pipe.net, inst)
      val l = locs(locs.length / 2)
      val got = UtcqSpark.whenQuery(pipe.net, pipe.meta, params, rows, t.id, l.edge.from, l.edge.to, l.rd, 0.2)
      val exp = GroundTruth.when(pipe.net, dec, l.edge.from, l.edge.to, l.rd, 0.2)
      assert(got == exp, s"traj ${t.id}")
    }
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
}
