package repro.jobs

import org.apache.spark.sql.SparkSession
import repro._
import repro.core.Params
import repro.spark.UtcqSpark

/** spark-submit entrypoint: generate an NCUT dataset, compress it with
  * UTCQ, report per-component compression ratios, and optionally persist
  * the compressed rows + index frames as parquet.
  *
  * Usage: CompressJob [profile=DK|CD|HZ] [sf=0.05] [outDir]
  */
object CompressJob {
  def main(args: Array[String]): Unit = {
    val profile = args.headOption.getOrElse("DK")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.05)
    val outDir = args.lift(2)

    val spark = JobDefaults.session(s"utcq-compress-$profile")
    import spark.implicits._

    val (netP, trajP, baseCount) = SynthData.profiles(profile)
    val params = JobDefaults.paramsFor(profile)
    val pipe = UtcqSpark.pipeline(netP, trajP, params)
    val n = math.max(1, (baseCount * sf).toInt)

    val trajs = UtcqSpark.generate(spark, pipe.net, trajP, n).cache()
    val original = trajs.map(t => repro.core.Sizes.original(t)).reduce(_ + _)

    val t0 = System.nanoTime()
    val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajs).cache()
    val compressed = UtcqSpark.totalSizes(rows)
    val secs = (System.nanoTime() - t0) / 1e9

    println(f"dataset=$profile trajectories=$n")
    println(f"compression ratio total=${original.total.toDouble / compressed.total}%.3f " +
      f"T=${original.t.toDouble / compressed.t}%.3f E=${original.e.toDouble / compressed.e}%.3f " +
      f"D=${original.d.toDouble / compressed.d}%.3f T'=${original.tf.toDouble / compressed.tf}%.3f " +
      f"p=${original.p.toDouble / compressed.p}%.3f time=$secs%.1fs")

    outDir.foreach { dir =>
      rows.write.mode("overwrite").parquet(s"$dir/compressed")
      val (te, rt) = UtcqSpark.indexFrames(spark, rows)
      te.write.mode("overwrite").parquet(s"$dir/index_temporal")
      rt.write.mode("overwrite").parquet(s"$dir/index_ref")
    }
    spark.stop()
  }
}

/** Default parameters per dataset, mirroring §6.1: η_p = 1/512 (DK, CD) or
  * 1/2048 (HZ); pivots 2 on DK, 1 elsewhere.
  */
object JobDefaults {
  def paramsFor(profile: String): Params = profile.toUpperCase match {
    case "DK" => Params(numPivots = 2, etaP = 1.0 / 512)
    case "CD" => Params(numPivots = 1, etaP = 1.0 / 512)
    case "HZ" => Params(numPivots = 1, etaP = 1.0 / 2048)
    case _    => Params()
  }

  /** Session that honours spark-submit's --master but runs local[*] when
    * launched directly (e.g. `sbt "runMain repro.jobs.Table8Job"`).
    */
  def session(name: String): SparkSession =
    SparkSession.builder()
      .appName(name)
      .config("spark.master", sys.props.getOrElse("spark.master", "local[*]"))
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
}
