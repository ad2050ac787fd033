package repro.core

import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.RoadNetwork
import repro.traj.{Instance, PathOps, ResolvedPath}
import scala.collection.mutable

/** Query processor over *compressed* uncertain trajectories (§5.3–5.4):
  * probabilistic where / when / range queries answered through the StIU
  * index with partial decompression and the filtering Lemmas 1–4.
  *
  * Counters record how often each lemma avoided decompression so tests and
  * benches can verify the filtering actually fires. They are plain `var`s:
  * concurrent queries on one engine (Spark tasks of parallel jobs on a
  * cached engine) may lose counts. Blobs decode with their own `ct.meta`;
  * nothing here reads `meta`.
  *
  * Where and when answer nothing for an id the engine does not hold, so an
  * engine over part of a dataset needs no guard. The engine is
  * serializable, so Spark can spill a cached one to disk.
  */
final class QueryEngine(
    val net: RoadNetwork,
    val meta: DatasetMeta,
    val index: StIU.Index,
    val store: Map[Long, CompressedTraj],
) extends Serializable {

  import QueryEngine.Stats

  val stats: Stats = Stats()

  // ------------------------------------------------------------ helpers

  private def decodeInstance(ct: CompressedTraj, slotIdx: Int, isRef: Boolean): Instance = {
    stats.instanceDecompressions += 1
    if (isRef) Decompressor.refInstance(ct, slotIdx)
    else Decompressor.nonRefInstance(ct, slotIdx)
  }

  /** Decode the time sequence starting from the temporal-index entry
    * closest below `t` (partial decompression of T̂). Returns the full
    * timestamp array but only decodes from the entry's Δ offset on when an
    * entry exists; positions before the entry are decoded only when needed
    * (t earlier than every entry start ⇒ decode from the beginning).
    */
  def timesFor(trajId: Long, t: Int): Option[(Array[Int], Int)] = {
    val ct = store(trajId)
    val entries = index.temporal.getOrElse(trajId, Vector.empty)
    if (entries.isEmpty) return Some((Decompressor.times(ct), 0))
    val below = entries.filter(_.tStart <= t)
    if (below.isEmpty) None // t precedes the trajectory entirely
    else {
      val e = below.maxBy(_.tStart)
      Some((Decompressor.timesFrom(ct, e.tNo, e.tStart), e.tNo))
    }
  }

  /** Bracketing samples (i, i+1) around `t`: the sample index i in
    * absolute terms and the timestamps t1 ≤ t ≤ t2 of both samples (t2 = t1
    * when i is the last sample), or None when t is outside the trajectory's
    * time span.
    */
  private def bracket(trajId: Long, t: Int): Option[(Int, Int, Int)] = {
    timesFor(trajId, t) match {
      case None => None
      case Some((suffix, base)) =>
        if (t < suffix.head || t > suffix.last) None
        else {
          var i = 0
          while (i < suffix.length - 1 && suffix(i + 1) < t) i += 1
          Some((base + i, suffix(i), suffix(math.min(i + 1, suffix.length - 1))))
        }
    }
  }

  // -------------------------------------------------------------- where

  /** Probabilistic where query (Def. 10): mapped locations at time `t` of
    * the instances with probability ≥ α.
    */
  def where(trajId: Long, t: Int, alpha: Double): Set[(Int, Int, Double)] = {
    if (!store.contains(trajId)) return Set.empty
    val ct = store(trajId)
    bracket(trajId, t) match {
      case None => Set.empty
      case Some((i, t1, t2)) =>
        val out = mutable.Set[(Int, Int, Double)]()
        def handle(inst: Instance): Unit = {
          val loc = PathOps.resolve(net, inst).between(i, t1, t2, t)
          out += ((loc.edge.from, loc.edge.to, loc.ndist))
        }
        ct.refs.indices.foreach { s =>
          if (ct.refs(s).prob >= alpha) handle(decodeInstance(ct, s, isRef = true))
        }
        ct.nonRefs.indices.foreach { k =>
          if (ct.nonRefs(k).prob >= alpha) handle(decodeInstance(ct, k, isRef = false))
        }
        out.toSet
    }
  }

  // --------------------------------------------------------------- when

  /** Probabilistic when query (Def. 11): timestamps at which instances with
    * probability ≥ α pass ⟨(vs→ve), rd⟩. Lemma 1 skips reference groups
    * whose p_max (and own probability) cannot reach α without decompressing
    * anything.
    */
  def when(trajId: Long, vs: Int, ve: Int, rd: Double, alpha: Double): Set[Double] = {
    if (!store.contains(trajId) || net.edgeBetween(vs, ve).isEmpty) return Set.empty
    val ct = store(trajId)
    val x = net.xs(vs) + rd * (net.xs(ve) - net.xs(vs))
    val y = net.ys(vs) + rd * (net.ys(ve) - net.ys(vs))
    val tuples = index.refTuples.getOrElse((trajId, index.grid.cellOf(x, y)), Vector.empty)
    if (tuples.isEmpty) return Set.empty
    val times = Decompressor.times(ct)

    val out = mutable.Set[Double]()
    val seenGroups = mutable.Set[Int]()
    tuples.foreach { rt =>
      if (!seenGroups.contains(rt.refSlot)) {
        seenGroups += rt.refSlot
        val refProb = ct.refs(rt.refSlot).prob
        if (refProb < alpha && rt.pMax < alpha) {
          stats.lemma1Prunes += 1 // whole group skipped, no decompression
        } else {
          if (refProb >= alpha && rt.fvId >= 0) {
            val inst = decodeInstance(ct, rt.refSlot, isRef = true)
            out ++= GroundTruth.passTimes(net, times, inst, vs, ve, rd)
          }
          if (rt.pMax >= alpha) {
            ct.nonRefs.indices.foreach { k =>
              val nl = ct.nonRefs(k)
              if (nl.refSlot == rt.refSlot && nl.prob >= alpha) {
                val inst = decodeInstance(ct, k, isRef = false)
                out ++= GroundTruth.passTimes(net, times, inst, vs, ve, rd)
              }
            }
          }
        }
      }
    }
    out.toSet
  }

  // -------------------------------------------------------------- range

  /** Probabilistic range query (Def. 12) over all indexed trajectories:
    * ids whose instances' probability mass inside RE at `tq` reaches α.
    * Lemma 4 prunes trajectories from index information alone; Lemma 2
    * classifies instances by their bracketing subpath without touching
    * D(·); Lemma 3 accepts early once confirmed mass reaches α.
    */
  def range(re: Rect, tq: Int, alpha: Double): Set[Long] = {
    val slot = tq / index.slotSeconds
    val cands = index.bySlot.getOrElse(slot, Vector.empty)
    val cells = index.grid.cellsOf(re)
    val out = mutable.Set[Long]()

    cands.foreach { trajId =>
      val ct = store(trajId)

      // ---- Lemma 4: index-only upper bound on the overlap mass ---------
      var upper = 0.0
      cells.foreach { c =>
        index.refTuples.getOrElse((trajId, c), Vector.empty).foreach(rt => upper += rt.pTotal)
      }
      if (math.min(1.0, upper) < alpha) {
        stats.lemma4Prunes += 1
      } else {
        bracket(trajId, tq) match {
          case None => ()
          case Some((i, t1, t2)) =>
            var confirmed = 0.0
            var accepted = false

            def classify(inst: Instance): Unit = {
              if (accepted) return
              // Subpath between the bracketing mapped locations (Lemma 2).
              val path = PathOps.resolve(net, inst)
              val sp = subpathVertices(path, i)
              val inRe = sp.forall { case (x, y) => re.contains(x, y) }
              if (inRe) {
                stats.lemma2Contained += 1
                confirmed += inst.prob
              } else if (!subpathIntersects(sp, re)) {
                stats.lemma2Disjoint += 1
              } else {
                stats.exactChecks += 1
                val (x, y) = GroundTruth.locXY(net, path.between(i, t1, t2, tq))
                if (re.contains(x, y)) confirmed += inst.prob
              }
              if (confirmed >= alpha) { accepted = true; stats.lemma3EarlyAccepts += 1 }
            }

            ct.refs.indices.foreach { s =>
              if (!accepted) classify(decodeInstance(ct, s, isRef = true))
            }
            ct.nonRefs.indices.foreach { k =>
              if (!accepted) classify(decodeInstance(ct, k, isRef = false))
            }
            if (accepted || confirmed >= alpha) out += trajId
        }
      }
    }
    out.toSet
  }

  /** Vertex coordinates of the subpath between the edges of samples i and
    * i+1 (inclusive of both edge endpoints) — Lemma 2's sp.
    */
  private def subpathVertices(path: ResolvedPath, i: Int): IndexedSeq[(Double, Double)] = {
    val a = path.sampleEdge(i)
    val b = path.sampleEdge(math.min(i + 1, path.sampleEdge.length - 1))
    val verts = (a to b).map(path.edges(_).from) :+ path.edges(b).to
    verts.map(v => (net.xs(v), net.ys(v)))
  }

  /** Conservative test whether the polyline touches RE: true if any vertex
    * is inside or any segment crosses the rectangle boundary.
    */
  private def subpathIntersects(sp: IndexedSeq[(Double, Double)], re: Rect): Boolean = {
    if (sp.exists { case (x, y) => re.contains(x, y) }) return true
    sp.indices.dropRight(1).exists { i =>
      val ((x0, y0), (x1, y1)) = (sp(i), sp(i + 1))
      !Grid.entry(x0, y0, x1, y1, re).isNaN
    }
  }
}

object QueryEngine {

  /** Counters of one engine, accumulated over all its queries. */
  final case class Stats(
      var lemma1Prunes: Int = 0,
      var lemma2Contained: Int = 0,
      var lemma2Disjoint: Int = 0,
      var lemma3EarlyAccepts: Int = 0,
      var lemma4Prunes: Int = 0,
      var exactChecks: Int = 0,
      var instanceDecompressions: Int = 0,
  )
}
