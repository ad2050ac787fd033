package utcqbench

/** One reported number. */
final case class Metric(name: String, value: Double, unit: String)

/** The last line a run prints: whether every check held, how many checked
  * operations ran and failed, and the metrics of the run's mode.
  */
final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]) {
  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
