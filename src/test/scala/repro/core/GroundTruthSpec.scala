package repro.core

import repro.SparkSpec
import repro.core.GroundTruth._
import repro.traj.PathOps

/** Brute-force evaluator tests on the paper's running example (Examples
  * 3–4 use these exact numbers).
  */
class GroundTruthSpec extends SparkSpec {
  import PaperFixture._

  test("Example 3 arithmetic: location of Tu11 at 5:21:25 is (v6->v7, 150)") {
    val loc = locationAt(net, times, tu11, t(5, 21, 25)).get
    assert(loc.edge.from == v6 && loc.edge.to == v7)
    assert(math.abs(loc.ndist - 150.0) < 1e-6)
  }

  test("Example 3: where(Tu1, 5:21:25, 0.25) returns only Tu11's location") {
    val res = where(net, tu1, t(5, 21, 25), 0.25)
    assert(res == Set((v6, v7, 150.0)))
  }

  test("where with alpha 0 includes all instances (they coincide mid-chain)") {
    // All three instances share l4/l5 positions (D is identical there), so
    // their interpolated locations at 5:21:25 coincide — the set dedupes.
    val res = where(net, tu1, t(5, 21, 25), 0.0)
    assert(res == Set((v6, v7, 150.0)))
  }

  test("Example 3: when(Tu1, (v6->v7, 0.75), 0.25) returns 5:21:25") {
    val res = when(net, tu1, v6, v7, 0.75, 0.25)
    assert(res.size == 1)
    assert(math.abs(res.head - t(5, 21, 25)) < 1e-6)
  }

  test("when at a sample location returns the sample time") {
    // l0 of Tu11 sits at rd 0.875 of (v1->v2) at 5:03:25.
    val res = when(net, tu1, v1, v2, 0.875, 0.25)
    assert(res.exists(x => math.abs(x - t(5, 3, 25)) < 1e-6))
  }

  test("locationAt outside the time span is None") {
    assert(locationAt(net, times, tu11, t(5, 0, 0)).isEmpty)
    assert(locationAt(net, times, tu11, t(6, 0, 0)).isEmpty)
  }

  test("locationAt at the exact first/last timestamps returns the endpoints") {
    val first = locationAt(net, times, tu11, times.head).get
    val path = PathOps.resolve(net, tu11)
    assert(first == path.mapped(0))
    val last = locationAt(net, times, tu11, times.last).get
    assert(last == path.mapped(tu11.numSamples - 1))
  }

  test("overlapProb sums instance probabilities inside a region") {
    // A region covering the whole fixture at a mid-trajectory time.
    val re = Rect(-1e6, -1e6, 1e6, 1e6)
    assert(math.abs(overlapProb(net, tu1, re, t(5, 11, 26)) - 1.0) < 1e-9)
  }

  test("Example 4: a region covering re3-re4-like area at 5:05:25 wins, far region loses") {
    // At 5:05:25 every instance sits between l0 and l1, i.e., within
    // x ∈ [0, xs(v4)] of the chain (or the v10 detour).
    val re = Rect(-10, -200, net.xs(v4) + 10, 250)
    assert(range(net, Seq(tu1), re, t(5, 5, 25), 0.5) == Set(1L))
    val reFar = Rect(net.xs(v7), -50, net.xs(v9) + 10, 50)
    assert(range(net, Seq(tu1), reFar, t(5, 5, 25), 0.5).isEmpty)
  }

  test("Example 6 arithmetic: pruning threshold 0.8 excludes Tu1 when only Ref passes") {
    // Region containing only the chain start (l0 area): all instances are
    // there at t0, so this is a positive; shrink to a region only the
    // detour passes to get sub-threshold mass.
    val reDetour = Rect(net.xs(v10) - 30, net.ys(v10) - 30, net.xs(v10) + 30, net.ys(v10) + 30)
    val mass = overlapProb(net, tu1, reDetour, t(5, 7, 25))
    assert(mass <= 0.2 + 1e-9) // at most Tu12's probability
    assert(range(net, Seq(tu1), reDetour, t(5, 7, 25), 0.8).isEmpty)
  }

  test("Rect.contains is inclusive of the boundary") {
    val re = Rect(0, 0, 10, 10)
    assert(re.contains(0, 0) && re.contains(10, 10) && !re.contains(10.01, 5))
  }

  test("locXY interpolates along the edge") {
    val e = net.edgeBetween(v1, v2).get
    val (x, y) = locXY(net, repro.traj.MappedLoc(e, 0.5))
    assert(math.abs(x - (net.xs(v1) + net.xs(v2)) / 2) < 1e-9)
    assert(math.abs(y - (net.ys(v1) + net.ys(v2)) / 2) < 1e-9)
  }
}
