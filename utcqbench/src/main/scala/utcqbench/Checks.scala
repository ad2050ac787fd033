package utcqbench

import repro.core.{CompressedTraj, GroundTruth, Params}
import repro.index.{Grid, StIU}
import repro.network.RoadNetwork
import repro.traj.UTraj
import scala.collection.mutable

/** Counts checked operations. An operation is one named piece of work on
  * the seed's inputs: the round trip of one trajectory, the assembly of one
  * batch, one query of the query set, one Spark ingest job. A workload
  * repeats its operations round after round and checks every execution; an
  * operation fails when any of its executions gave a wrong answer. So
  * `attempted` and `failed` count distinct operations and are a function of
  * the seed, not of how many rounds the time allowed. A failed check never
  * stops the run. `unexpected` counts the failed operations outside the
  * documented `when` defect (see [[Checks.knownWhenMiss]]).
  */
final class Tally {
  private val seen = mutable.HashSet[String]()
  private val known, other = mutable.HashSet[String]()
  private val notes = mutable.ArrayBuffer[String]()

  def attempted: Long = seen.size.toLong
  def failed: Long = (known ++ other).size.toLong
  def knownWhenMisses: Long = known.size.toLong
  def unexpected: Long = other.size.toLong

  def pass(op: String): Unit = seen += op

  def fail(op: String, isKnown: Boolean, what: => String): Unit = {
    seen += op
    val fresh = !known.contains(op) && !other.contains(op)
    if (isKnown) known += op else other += op
    if (fresh && notes.size < 10) notes += (if (isKnown) "known when miss: " else "FAILED: ") + what
  }

  def check(op: String, ok: Boolean, what: => String): Unit = if (ok) pass(op) else fail(op, isKnown = false, what)

  /** Check a round trip; `None` is a pass. */
  def roundTrip(op: String, result: Option[String]): Unit = result.fold(pass(op))(fail(op, isKnown = false, _))

  /** The first few failed operations, for the run's standard error. */
  def report: Seq[String] = notes.toSeq
}

object Checks {

  /** Round trip of one trajectory: times, start vertices, edges and flags
    * exact; distances within η_D and probabilities within η_p.
    */
  def roundTrip(params: Params, orig: UTraj, dec: UTraj): Option[String] = {
    def bad(what: String) = Some(s"trajectory ${orig.id}: $what")
    if (dec.id != orig.id) return bad(s"id ${dec.id}")
    if (!dec.times.sameElements(orig.times)) return bad("times differ")
    if (dec.instances.length != orig.instances.length) return bad("instance count differs")
    orig.instances.indices.foreach { w =>
      val (o, d) = (orig.instances(w), dec.instances(w))
      if (d.sv != o.sv) return bad(s"instance $w start vertex")
      if (!d.edges.sameElements(o.edges)) return bad(s"instance $w edges")
      if (!d.tflags.sameElements(o.tflags)) return bad(s"instance $w time flags")
      if (d.dists.length != o.dists.length ||
          o.dists.indices.exists(i => math.abs(d.dists(i) - o.dists(i)) > params.etaD))
        return bad(s"instance $w distances beyond eta_D")
      if (math.abs(d.prob - o.prob) > params.etaP) return bad(s"instance $w probability beyond eta_p")
    }
    None
  }

  /** Ground truth of a query on decompressed data. Range queries only look
    * at trajectories alive at `tq`: the others overlap RE with mass 0.
    */
  def expected(net: RoadNetwork, dec: Map[Long, UTraj], q: Query): Any = q match {
    case Where(id, t, a)          => GroundTruth.where(net, dec(id), t, a)
    case When(id, vs, ve, rd, a)  => GroundTruth.when(net, dec(id), vs, ve, rd, a)
    case Range(re, tq, a) =>
      GroundTruth.range(net, dec.values.filter(t => t.times.head <= tq && tq <= t.times.last).toSeq, re, tq, a)
  }

  /** The documented `when` false negative: `StIU.cellArrivals` samples each
    * edge at cell/3 spacing and can skip a cell the edge only clips, so the
    * index has no usable tuple of that instance in the query's cell and
    * `QueryEngine.when` never decodes it. A miss is of this kind when the
    * answer is a strict subset of the truth and every missing time comes
    * from a qualifying instance whose arrivals lack the query's cell.
    */
  def knownWhenMiss(net: RoadNetwork, grid: Grid, dec: UTraj, q: When,
      got: Set[Double], truth: Set[Double]): Boolean = {
    if (!got.subsetOf(truth) || got == truth) return false
    val x = net.xs(q.vs) + q.rd * (net.xs(q.ve) - net.xs(q.vs))
    val y = net.ys(q.vs) + q.rd * (net.ys(q.ve) - net.ys(q.vs))
    val cell = grid.cellOf(x, y)
    (truth -- got).forall { t =>
      dec.instances.exists { in =>
        in.prob >= q.alpha &&
        GroundTruth.passTimes(net, dec.times, in, q.vs, q.ve, q.rd).contains(t) &&
        !StIU.cellArrivals(net, grid, in).exists(_._1 == cell)
      }
    }
  }

  /** Check one query answer against its ground truth; `op` names the query. */
  def answer(tally: Tally, op: String, net: RoadNetwork, grid: Grid, dec: Map[Long, UTraj],
      q: Query, got: Any, truth: Any): Unit =
    if (got == truth) tally.pass(op)
    else q match {
      case w: When =>
        val known = knownWhenMiss(net, grid, dec(w.trajId), w,
          got.asInstanceOf[Set[Double]], truth.asInstanceOf[Set[Double]])
        tally.fail(op, known, s"$w returned $got, truth $truth")
      case _ => tally.fail(op, isKnown = false, s"$q returned $got, truth $truth")
    }

  /** Layout cache a [[CompressedTraj]] carries besides its blob, in bits:
    * 32 per offset or count, 64 per cached probability.
    */
  def layoutCacheBits(ct: CompressedTraj): Long = {
    val refs = ct.refs.length.toLong * (7 * 32 + 64)
    val nonRefs = ct.nonRefs.map(nl =>
      6 * 32 + 64 + 32L * (nl.comEFactorOffs.length + nl.comEFactorSpans.length)).sum
    32L * (1 + ct.deltaOffs.length) + refs + nonRefs
  }
}
