package repro.jobs

import repro.eval.Tables

/** spark-submit entrypoints, one per evaluation table (see DESIGN.md §4).
  * Each prints the paper's row next to the measured row; EXPERIMENTS.md
  * records the same numbers.
  */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val spark = JobDefaults.session("utcq-table5")
    Seq("DK", "CD", "HZ").foreach { p =>
      val r = Tables.table5(spark, p, sf)
      println(f"${r.dataset}: storage=${r.storageMB}%.1fMB trajectories=${r.numTrajectories} " +
        f"instances avg=${r.avgInstances}%.1f (${r.minInstances}-${r.maxInstances}) " +
        f"edges avg=${r.avgEdges}%.1f (${r.minEdges}-${r.maxEdges}) Ts=${r.defaultInterval}s")
    }
    spark.stop()
  }
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobDefaults.session("utcq-table6")
    Seq("DK", "CD", "HZ").foreach { p =>
      val r = Tables.table6(p)
      println(f"${r.dataset}: edges=${r.numEdges} vertices=${r.numVertices} outDegree=${r.avgOutDegree}%.3f")
    }
    spark.stop()
  }
}

object Table8Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val spark = JobDefaults.session("utcq-table8")
    Seq("DK", "CD", "HZ").foreach { p =>
      println(Tables.formatTable8(Tables.table8(spark, p, sf)))
    }
    spark.stop()
  }
}
