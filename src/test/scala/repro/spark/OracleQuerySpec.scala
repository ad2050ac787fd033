package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.GroundTruth.Rect
import repro.network.RoadNetworkGen
import repro.traj.{UTraj, UncertainTrajGen}

/** DuckDB-oracle checks of the probabilistic query semantics: the
  * compressed-side engine's results must match a relational formulation of
  * Defs. 10 and 12 evaluated by DuckDB over the (decompressed) instance
  * locations.
  */
class OracleQuerySpec extends SparkSpec {

  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val pipe = UtcqSpark.pipeline(RoadNetworkGen.CD, UncertainTrajGen.CD, params)
  private lazy val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params,
    UtcqSpark.generate(spark, pipe.net, UncertainTrajGen.CD, 30)).cache()
  private lazy val decompressed: Seq[UTraj] =
    rows.collect().map(r => Decompressor.decompress(pipe.meta, r.ct)).sortBy(_.id).toSeq

  /** Instance locations at a fixed timestamp as a relational table. */
  private def locationsAt(tq: Int) = {
    import spark.implicits._
    decompressed.flatMap { t =>
      t.instances.flatMap { in =>
        GroundTruth.locationAt(pipe.net, t.times, in, tq).map { l =>
          val (x, y) = GroundTruth.locXY(pipe.net, l)
          (t.id, in.prob, x, y)
        }
      }
    }.toDF("trajid", "prob", "x", "y")
  }

  test("range query semantics match DuckDB (Def. 12)") {
    import spark.implicits._
    val t = decompressed.head
    val tq = t.times(t.times.length / 2)
    val loc = GroundTruth.locationAt(pipe.net, t.times, t.instances.head, tq).get
    val (cx, cy) = GroundTruth.locXY(pipe.net, loc)
    val re = Rect(cx - 2500, cy - 2500, cx + 2500, cy + 2500)
    val alpha = 0.3

    val got = UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, rows, re, tq, alpha)
    val gotDf = got.toSeq.toDF("trajid")

    Oracle.assertEquivalent(
      gotDf,
      s"""SELECT CAST(trajid AS BIGINT) AS trajid
         |FROM locations
         |WHERE CAST(x AS DOUBLE) BETWEEN ${re.minX} AND ${re.maxX}
         |  AND CAST(y AS DOUBLE) BETWEEN ${re.minY} AND ${re.maxY}
         |GROUP BY trajid
         |HAVING SUM(CAST(prob AS DOUBLE)) >= $alpha""".stripMargin,
      "locations" -> locationsAt(tq),
    )
  }

  test("range query with an unsatisfiable alpha matches DuckDB's empty result") {
    import spark.implicits._
    val t = decompressed.head
    val tq = t.times.head
    val (minX, minY, maxX, maxY) = pipe.net.boundingBox
    val re = Rect(minX, minY, maxX, maxY)
    val got = UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, rows, re, tq, 1.5)
    Oracle.assertEquivalent(
      got.toSeq.toDF("trajid"),
      s"""SELECT CAST(trajid AS BIGINT) AS trajid FROM locations
         |GROUP BY trajid HAVING SUM(CAST(prob AS DOUBLE)) >= 1.5""".stripMargin,
      "locations" -> locationsAt(tq),
    )
  }

  test("where query semantics match DuckDB at a sample timestamp (Def. 10)") {
    import spark.implicits._
    val t = decompressed(1)
    val i = t.times.length / 2
    val tq = t.times(i)
    val alpha = 0.15

    // Relational table of the instances' sample-i mapped locations.
    val samples = t.instances.map { in =>
      val l = repro.traj.PathOps.resolve(pipe.net, in).mapped(i)
      (t.id, in.prob, l.edge.from, l.edge.to, l.ndist)
    }.toSeq.toDF("trajid", "prob", "vfrom", "vto", "ndist")

    val got = UtcqSpark.whereQuery(pipe.net, pipe.meta, params, rows, t.id, tq, alpha)
    val gotDf = got.toSeq.toDF("vfrom", "vto", "ndist")

    Oracle.assertEquivalent(
      gotDf,
      s"""SELECT DISTINCT CAST(vfrom AS INT) AS vfrom, CAST(vto AS INT) AS vto,
         |       CAST(ndist AS DOUBLE) AS ndist
         |FROM samples
         |WHERE CAST(prob AS DOUBLE) >= $alpha""".stripMargin,
      "samples" -> samples,
    )
  }

  test("Table 5 statistics match a DuckDB aggregation") {
    import spark.implicits._
    val flat = decompressed.map(t => (t.id, t.instances.length)).toDF("trajid", "n")
    val stats = flat.agg(
      org.apache.spark.sql.functions.count("*").as("trajs"),
      org.apache.spark.sql.functions.sum("n").as("insts"),
    )
    Oracle.assertEquivalent(
      stats,
      "SELECT COUNT(*) AS trajs, SUM(CAST(n AS BIGINT)) AS insts FROM flat",
      "flat" -> flat,
    )
  }
}
