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
  * One read path serves every query. Times come from [[bracket]]: the
  * temporal entry at or before the query time, and T̂ decoded from its Δ
  * offset on. A trajectory's instances are numbered in blob order,
  * references first, then non-references; [[prob]] reads an instance's
  * probability from the layout and [[instance]] decodes it whole.
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

  /** Probability of instance `j` in blob order (references, then
    * non-references), read from the layout without decoding anything.
    */
  private def prob(ct: CompressedTraj, j: Int): Double =
    if (j < ct.refs.length) ct.refs(j).prob else ct.nonRefs(j - ct.refs.length).prob

  /** Instance `j` in blob order, decoded whole. */
  private def instance(ct: CompressedTraj, j: Int): Instance = {
    stats.instanceDecompressions += 1
    if (j < ct.refs.length) Decompressor.refInstance(ct, j)
    else Decompressor.nonRefInstance(ct, j - ct.refs.length)
  }

  /** Bracketing samples (i, i+1) around `t`, found through the temporal
    * index: T̂ is decoded from the last entry with t.start ≤ t on (entries
    * are slot-ordered), until a timestamp reaches t. Returns the sample
    * index i and the timestamps t1 ≤ t ≤ t2 of both samples (t2 = t1 when
    * i is the last sample), or None when t is outside the trajectory's time
    * span or the index holds no entry for the trajectory.
    */
  private[core] def bracket(ct: CompressedTraj, t: Int): Option[(Int, Int, Int)] =
    index.temporal.getOrElse(ct.id, Vector.empty).takeWhile(_.tStart <= t).lastOption.flatMap { e =>
      val ts = Decompressor.timesFrom(ct, e.tNo, e.tStart, until = t)
      if (t > ts.last) None
      else {
        var k = 0
        while (k < ts.length - 1 && ts(k + 1) < t) k += 1
        Some((e.tNo + k, ts(k), ts(math.min(k + 1, ts.length - 1))))
      }
    }

  // -------------------------------------------------------------- where

  /** Probabilistic where query (Def. 10): mapped locations at time `t` of
    * the instances with probability ≥ α.
    */
  def where(trajId: Long, t: Int, alpha: Double): Set[(Int, Int, Double)] =
    store.get(trajId).flatMap(ct => bracket(ct, t).map((ct, _))) match {
      case None => Set.empty
      case Some((ct, (i, t1, t2))) =>
        (0 until ct.numInstances).iterator.filter(prob(ct, _) >= alpha).map { j =>
          val loc = PathOps.resolve(net, instance(ct, j)).between(i, t1, t2, t)
          (loc.edge.from, loc.edge.to, loc.ndist)
        }.toSet
    }

  // --------------------------------------------------------------- when

  /** Probabilistic when query (Def. 11): timestamps at which instances with
    * probability ≥ α pass ⟨(vs→ve), rd⟩. The cell of the point holds one
    * tuple per reference group; Lemma 1 skips a group whose p_max (and own
    * probability) cannot reach α without decompressing anything.
    */
  def when(trajId: Long, vs: Int, ve: Int, rd: Double, alpha: Double): Set[Double] = {
    if (!store.contains(trajId) || net.edgeBetween(vs, ve).isEmpty) return Set.empty
    val ct = store(trajId)
    val x = net.xs(vs) + rd * (net.xs(ve) - net.xs(vs))
    val y = net.ys(vs) + rd * (net.ys(ve) - net.ys(vs))
    val tuples = index.tuplesIn(trajId, index.grid.cellOf(x, y))
    if (tuples.isEmpty) return Set.empty
    val times = Decompressor.times(ct)
    def passTimes(j: Int) = GroundTruth.passTimes(net, times, instance(ct, j), vs, ve, rd)

    val out = mutable.Set[Double]()
    tuples.foreach { rt =>
      val refProb = prob(ct, rt.refSlot)
      if (refProb < alpha && rt.pMax < alpha) {
        stats.lemma1Prunes += 1 // whole group skipped, no decompression
      } else {
        if (refProb >= alpha && rt.refHits) out ++= passTimes(rt.refSlot)
        if (rt.pMax >= alpha) ct.nonRefs.indices.foreach { k =>
          val j = ct.refs.length + k
          if (ct.nonRefs(k).refSlot == rt.refSlot && prob(ct, j) >= alpha) out ++= passTimes(j)
        }
      }
    }
    out.toSet
  }

  // -------------------------------------------------------------- range

  /** Probabilistic range query (Def. 12) over all indexed trajectories:
    * ids whose instances' probability mass inside RE at `tq` reaches α.
    * Candidates are the trajectories whose slot span holds `tq`'s slot.
    * Lemma 4 prunes trajectories from index information alone, in one scan
    * of a candidate's cell-ordered tuples ([[StIU.Index.upperMass]]);
    * Lemma 2 classifies instances by their bracketing subpath without
    * touching D(·); Lemma 3 accepts early once confirmed mass reaches α.
    */
  def range(re: Rect, tq: Int, alpha: Double): Set[Long] = {
    val cands = index.bySlot.getOrElse(tq / index.slotSeconds, Vector.empty)
    val box = index.grid.cellBox(re)

    cands.iterator.filter { trajId =>
      val ct = store(trajId)
      // ---- Lemma 4: index-only upper bound on the overlap mass ---------
      if (math.min(1.0, index.upperMass(trajId, box)) < alpha) {
        stats.lemma4Prunes += 1
        false
      } else bracket(ct, tq).exists { case (i, t1, t2) =>
        var confirmed = 0.0
        val accepted = (0 until ct.numInstances).iterator.exists { j =>
          val inst = instance(ct, j)
          // Subpath between the bracketing mapped locations (Lemma 2).
          val path = PathOps.resolve(net, inst)
          val sp = subpathVertices(path, i)
          if (sp.forall { case (x, y) => re.contains(x, y) }) {
            stats.lemma2Contained += 1
            confirmed += inst.prob
          } else if (!subpathIntersects(sp, re)) {
            stats.lemma2Disjoint += 1
          } else {
            stats.exactChecks += 1
            val (x, y) = GroundTruth.locXY(net, path.between(i, t1, t2, tq))
            if (re.contains(x, y)) confirmed += inst.prob
          }
          confirmed >= alpha
        }
        if (accepted) stats.lemma3EarlyAccepts += 1
        accepted
      }
    }.toSet
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
