package repro.jobs

import org.apache.spark.sql.SparkSession
import repro._
import repro.eval.Tables
import repro.spark.UtcqSpark

/** spark-submit entrypoint: generate an NCUT dataset, compress it with
  * UTCQ, report per-component compression ratios, and optionally persist
  * the compressed rows, each with its StIU entries inline, as parquet.
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
    val params = SynthData.paramsFor(profile)
    val pipe = UtcqSpark.pipeline(netP, trajP, params)
    val n = math.max(1, (baseCount * sf).toInt)

    val trajs = UtcqSpark.generate(spark, pipe.net, trajP, n).cache()
    val original = trajs.map(t => repro.core.Sizes.original(t)).reduce(_ + _)

    val t0 = System.nanoTime()
    val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajs).cache()
    val compressed = UtcqSpark.totalSizes(rows)
    val secs = (System.nanoTime() - t0) / 1e9

    println(f"dataset=$profile trajectories=$n")
    val r = Tables.ratios(original, compressed)
    println(f"compression ratio total=${r.total}%.3f T=${r.t}%.3f E=${r.e}%.3f " +
      f"D=${r.d}%.3f T'=${r.tf}%.3f p=${r.p}%.3f time=$secs%.1fs")

    outDir.foreach(dir => rows.write.mode("overwrite").parquet(s"$dir/compressed"))
    spark.stop()
  }
}

object JobDefaults {
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
