package utcqbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Decompressor
import repro.traj.UncertainTrajGen

class ChecksSpec extends AnyFunSuite {

  /** The generator's own HZ dataset, trajectory ids 0–59. */
  private lazy val store = {
    val net = Inputs.network()
    Queries.build(Inputs.data(net, UncertainTrajGen.dataset(net, UncertainTrajGen.HZ, 60)))
  }
  private lazy val dec = store.d.trajs.indices
    .map(i => store.d.trajs(i).id -> Decompressor.decompress(store.d.meta, store.cts(i))).toMap

  test("the known when false negative is detected and counted as a failed operation") {
    // Trajectory 51 passes a cell that StIU.cellArrivals skips: the engine
    // answers ∅ where the ground truth has one pass time.
    val q = When(51, 2110, 2053, 0.2373, 0.3)
    val got = store.engine.when(q.trajId, q.vs, q.ve, q.rd, q.alpha)
    val truth = Checks.expected(store.d.net, dec, q)
    assert(got.isEmpty && truth.asInstanceOf[Set[Double]].size == 1)
    val tally = new Tally
    Checks.answer(tally, "q", store.d.net, store.d.grid, dec, q, got, truth)
    assert((tally.attempted, tally.failed, tally.knownWhenMisses, tally.unexpected) == ((1L, 1L, 1L, 0L)))
  }

  test("any other wrong answer is an unexpected failure") {
    val tally = new Tally
    val q = Where(7, store.d.trajs(7).times.head, 0.1)
    val truth = Checks.expected(store.d.net, dec, q)
    Checks.answer(tally, "a", store.d.net, store.d.grid, dec, q, Set.empty, truth)
    val w = When(51, 2110, 2053, 0.2373, 0.3)
    Checks.answer(tally, "b", store.d.net, store.d.grid, dec, w, Set(1.0), Set.empty[Double])
    Checks.answer(tally, "c", store.d.net, store.d.grid, dec, q, truth, truth)
    assert((tally.attempted, tally.failed, tally.unexpected) == ((3L, 2L, 2L)))
  }

  test("an operation repeated in later rounds counts once, and fails if any execution failed") {
    val tally = new Tally
    (1 to 5).foreach(_ => tally.pass("a"))
    tally.pass("b")
    tally.fail("b", isKnown = true, "b missed")
    tally.pass("b")
    (1 to 3).foreach(_ => tally.fail("c", isKnown = false, "c wrong"))
    assert((tally.attempted, tally.failed, tally.knownWhenMisses, tally.unexpected) == ((3L, 2L, 1L, 1L)))
    assert(tally.report == Seq("known when miss: b missed", "FAILED: c wrong"))
  }

  test("round trip accepts the decoder's output and rejects a changed edge") {
    val t = store.d.trajs(3)
    assert(Checks.roundTrip(Inputs.params, t, dec(3)).isEmpty)
    val in0 = dec(3).instances(0)
    val edges = in0.edges.clone()
    edges(0) = if (edges(0) == 1) 2 else 1
    val bad = dec(3).copy(instances = dec(3).instances.updated(0, in0.copy(edges = edges)))
    assert(Checks.roundTrip(Inputs.params, t, bad).nonEmpty)
  }

  test("every seed gets the same ladder of instance counts and other paths") {
    val rungs = Inputs.ladder(50, 2, 13.0, 80)
    assert(rungs == rungs.sorted && rungs.head == 2 && rungs.last <= 80)
    val (a, b) = (Inputs.hz(1, 50), Inputs.hz(2, 50))
    assert(a.trajs.map(_.instances.length) == rungs)
    assert(b.trajs.map(_.instances.length) == rungs)
    assert(a.trajs.map(_.times.head) != b.trajs.map(_.times.head))
  }
}
