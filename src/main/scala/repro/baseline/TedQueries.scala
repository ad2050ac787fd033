package repro.baseline

import repro.core.GroundTruth
import repro.core.GroundTruth.Rect
import repro.index.{Grid, StIU}
import repro.network.RoadNetwork
import scala.collection.mutable

/** Query processing over TED-compressed data.
  *
  * TED's index [40] targets accurate trajectories: it has no probability
  * aggregates and no referential awareness, so each candidate instance must
  * be fully decompressed before it can be tested. We give the baseline the
  * same grid/time partitioning as StIU for candidate filtering (an
  * instance is listed in every cell [[StIU.cellArrivals]] gives), but every
  * surviving candidate is decompressed in full — the behaviour the paper's
  * query-time comparison (Figs. 9–10) captures.
  */
final class TedQueryEngine(
    net: RoadNetwork,
    ds: TedCompressor.TedDataset,
    grid: Grid,
    slotSeconds: Int,
) {
  var instanceDecompressions: Int = 0

  private val byId: Map[Long, TedCompressor.TedTraj] = ds.trajs.map(t => (t.id, t)).toMap

  // slot -> trajIds ; (trajId, cell) -> instance indices
  private val bySlot: Map[Int, IndexedSeq[Long]] = {
    val m = mutable.Map[Int, mutable.ArrayBuffer[Long]]()
    ds.trajs.foreach { t =>
      val times = TedCompressor.restoreTimes(t.timePairs, t.numSamples)
      (times.head / slotSeconds to times.last / slotSeconds).foreach { s =>
        m.getOrElseUpdate(s, mutable.ArrayBuffer()) += t.id
      }
    }
    m.view.mapValues(_.distinct.toVector).toMap
  }

  private val cellIndex: Map[(Long, Int), IndexedSeq[Int]] = {
    val m = mutable.Map[(Long, Int), mutable.ArrayBuffer[Int]]()
    ds.trajs.foreach { t =>
      t.instances.zipWithIndex.foreach { case (ti, k) =>
        val inst = TedCompressor.decompressInstance(ds, ti)
        StIU.cellArrivals(net, grid, inst).foreach { case (c, _) =>
          m.getOrElseUpdate((t.id, c), mutable.ArrayBuffer()) += k
        }
      }
    }
    m.view.mapValues(_.toVector).toMap
  }

  /** Index size in bits (slot lists + cell lists), for the Fig. 9 metric. */
  def indexSizeBits: Long =
    bySlot.valuesIterator.map(_.size).sum.toLong * (16 + 32) +
      cellIndex.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 16)

  private def decompressedTraj(id: Long) = {
    val t = byId(id)
    instanceDecompressions += t.instances.length
    TedCompressor.decompressTraj(ds, t)
  }

  /** Where and when answer nothing for an id the engine does not hold or an
    * edge the network does not have, as [[repro.core.QueryEngine]] does.
    */
  def where(trajId: Long, t: Int, alpha: Double): Set[(Int, Int, Double)] =
    if (!byId.contains(trajId)) Set.empty
    else GroundTruth.where(net, decompressedTraj(trajId), t, alpha)

  def when(trajId: Long, vs: Int, ve: Int, rd: Double, alpha: Double): Set[Double] = {
    if (net.edgeBetween(vs, ve).isEmpty) return Set.empty
    val x = net.xs(vs) + rd * (net.xs(ve) - net.xs(vs))
    val y = net.ys(vs) + rd * (net.ys(ve) - net.ys(vs))
    val cell = grid.cellOf(x, y)
    if (!cellIndex.contains((trajId, cell))) return Set.empty
    GroundTruth.when(net, decompressedTraj(trajId), vs, ve, rd, alpha)
  }

  def range(re: Rect, tq: Int, alpha: Double): Set[Long] = {
    val cands = bySlot.getOrElse(tq / slotSeconds, Vector.empty)
    val cells = grid.cellsOf(re).toSet
    cands.filter { id =>
      val touches = cells.exists(c => cellIndex.contains((id, c))) // else its mass in RE is 0 (Lemma 4)
      (touches || alpha <= 0) && GroundTruth.inRange(net, decompressedTraj(id), re, tq, alpha)
    }.toSet
  }
}
