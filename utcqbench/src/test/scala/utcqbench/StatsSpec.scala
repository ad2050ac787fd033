package utcqbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("nearest-rank percentile leaves the stated number of samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 99) == 99.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.beyond(100, 90) == 10)
    assert(Stats.beyond(99, 90) == 9)
  }

  test("every workload's p90 has at least ten samples beyond it") {
    assert(Stats.beyond(Ingest.trajectories, 90) >= 10)
    assert(Stats.beyond(Queries.queryGroups, 90) >= 10) // one range query per group
    assert(Stats.beyond(SparkRun.queryGroups * 3, 90) >= 10)
    assert(Stats.beyond(SparkRun.queryGroups * 3 - 3, 90) < 10)
  }

  test("percentile ignores input order and rounds the rank up") {
    val xs = Seq(5.0, 1.0, 4.0, 2.0, 3.0)
    assert(Stats.percentile(xs, 50) == 3.0) // rank ⌈2.5⌉ = 3
    assert(Stats.percentile(xs, 1) == 1.0)
    assert(Stats.percentile(xs, 81) == 5.0) // rank ⌈4.05⌉ = 5
    assert(Stats.percentile(Seq(7.0), 90) == 7.0)
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
  }

  test("throughput is events over busy time") {
    assert(Stats.perSecond(500, 250000000L) == 2000.0)
    assert(Stats.perSecond(1, 1000L) == 1e6)
    assertThrows[IllegalArgumentException](Stats.perSecond(1, 0L))
  }

  test("each operation keeps its fastest time over the rounds") {
    val f = new Fastest(3)
    Seq(Seq(50L, 9L, 30L), Seq(40L, 12L, 31L), Seq(45L, 10L, 20L)).foreach(_.zipWithIndex.foreach {
      case (t, i) => f.record(i, t)
    })
    assert(f.times == Seq(40L, 9L, 20L))
    assert(f.totalNs == 69L)
    assert(f.ms(Seq(2, 0)) == Seq(20 / 1e6, 40 / 1e6))
    val unmeasured = new Fastest(2)
    unmeasured.record(0, 5L)
    assertThrows[IllegalArgumentException](unmeasured.totalNs)
  }

  test("the tracing overhead compares median round times") {
    assert(math.abs(Loop.overheadPct(Seq(100L, 100L, 300L), Seq(110L, 110L, 90L)) - 10.0) < 1e-9)
    assert(Loop.overheadPct(Nil, Seq(1L)) == 0.0)
  }

  test("layer self time subtracts the children of each span") {
    val spans = Seq(
      Span(0, -1, 0, "bench.op", 0, 100, 90),
      Span(1, 0, 0, "core.compress", 10, 60, 50),
      Span(2, 0, 0, "index.build", 60, 90, 25))
    val t = Spans.byLayer(spans)
    assert(t("bench") == LayerTime(20, 15))
    assert(t("core") == LayerTime(50, 50))
    assert(t("index").waitNs == 5)
  }

  test("the result line is one JSON object with the four keys") {
    val o = Outcome(correct = true, 3, 1, Seq(Metric("setup_s", 0.5, "s")))
    assert(o.json == """{"correct": true, "attempted": 3, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}""")
    assertThrows[IllegalArgumentException](Outcome(correct = true, 1, 0, Seq(Metric("x", Double.NaN, "s"))).json)
  }
}
