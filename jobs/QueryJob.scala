package repro.jobs

import repro._
import repro.core.GroundTruth.Rect
import repro.spark.UtcqSpark

/** spark-submit entrypoint: compress a dataset and run the three
  * probabilistic query types over the compressed rows via the StIU index.
  *
  * Usage: QueryJob [profile=DK|CD|HZ] [sf=0.02] [numQueries=20]
  */
object QueryJob {
  def main(args: Array[String]): Unit = {
    val profile = args.headOption.getOrElse("DK")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.02)
    val numQueries = args.lift(2).map(_.toInt).getOrElse(20)

    val spark = JobDefaults.session(s"utcq-query-$profile")

    val (netP, trajP, baseCount) = SynthData.profiles(profile)
    val params = SynthData.paramsFor(profile)
    val pipe = UtcqSpark.pipeline(netP, trajP, params)
    val n = math.max(1, (baseCount * sf).toInt)

    val trajs = UtcqSpark.generate(spark, pipe.net, trajP, n).cache()
    val rows = UtcqSpark.compress(spark, pipe.net, pipe.meta, params, trajs).cache()
    rows.count()

    val sample = trajs.take(numQueries)
    val rnd = new scala.util.Random(7)
    var t0 = System.nanoTime()
    sample.foreach { t =>
      val tq = t.times(t.times.length / 2)
      UtcqSpark.whereQuery(pipe.net, pipe.meta, params, rows, t.id, tq, 0.2)
    }
    println(f"where: ${(System.nanoTime() - t0) / 1e6 / numQueries}%.1f ms/query")

    t0 = System.nanoTime()
    sample.foreach { t =>
      val l = repro.traj.PathOps.resolve(pipe.net, t.instances.head).mapped(t.numSamples / 2)
      UtcqSpark.whenQuery(pipe.net, pipe.meta, params, rows, t.id, l.edge.from, l.edge.to, l.rd, 0.2)
    }
    println(f"when: ${(System.nanoTime() - t0) / 1e6 / numQueries}%.1f ms/query")

    t0 = System.nanoTime()
    sample.foreach { t =>
      val v = t.instances.head.sv
      val (x, y) = (pipe.net.xs(v), pipe.net.ys(v))
      val half = 600 + rnd.nextInt(600)
      val re = Rect(x - half, y - half, x + half, y + half)
      UtcqSpark.rangeQuery(pipe.net, pipe.meta, params, rows, re, t.times(t.times.length / 2), 0.5)
    }
    println(f"range: ${(System.nanoTime() - t0) / 1e6 / numQueries}%.1f ms/query")
    spark.stop()
  }
}
