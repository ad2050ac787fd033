package repro.index

import repro.core.GroundTruth.Rect
import repro.network.RoadNetwork

/** Uniform grid partition of the road-network plane: the spatial side of
  * the StIU index (§5.2). Cells are numbered row-major.
  */
final case class Grid(minX: Double, minY: Double, cellW: Double, cellH: Double, nx: Int, ny: Int)
    extends Serializable {

  def numCells: Int = nx * ny

  def cellOf(x: Double, y: Double): Int = {
    val cx = math.min(nx - 1, math.max(0, ((x - minX) / cellW).toInt))
    val cy = math.min(ny - 1, math.max(0, ((y - minY) / cellH).toInt))
    cy * nx + cx
  }

  def cellRect(cell: Int): Rect = {
    val cx = cell % nx
    val cy = cell / nx
    Rect(minX + cx * cellW, minY + cy * cellH, minX + (cx + 1) * cellW, minY + (cy + 1) * cellH)
  }

  /** The columns and rows of the cells intersecting the rectangle, clamped
    * to the grid.
    */
  def cellBox(re: Rect): Grid.CellBox = Grid.CellBox(
    math.min(nx - 1, math.max(0, ((re.minX - minX) / cellW).toInt)),
    math.min(nx - 1, math.max(0, ((re.maxX - minX) / cellW).toInt)),
    math.min(ny - 1, math.max(0, ((re.minY - minY) / cellH).toInt)),
    math.min(ny - 1, math.max(0, ((re.maxY - minY) / cellH).toInt)),
    nx)

  /** All cells intersecting the rectangle ([[cellBox]]), in ascending order. */
  def cellsOf(re: Rect): Seq[Int] = {
    val b = cellBox(re)
    for (cy <- b.cy0 to b.cy1; cx <- b.cx0 to b.cx1) yield cy * nx + cx
  }

  /** Cells whose closed rectangle, widened by 1e-9 of a cell, the segment
    * (x0, y0)→(x1, y1) touches, in order of the parameter at which the
    * segment enters them (ties in row-major order).
    */
  def cellsAlong(x0: Double, y0: Double, x1: Double, y1: Double): Array[Int] = {
    val padX = cellW * 1e-9
    val padY = cellH * 1e-9
    def col(x: Double) = math.min(nx - 1, math.max(0, math.floor((x - minX) / cellW).toInt))
    def row(y: Double) = math.min(ny - 1, math.max(0, math.floor((y - minY) / cellH).toInt))
    val (cx0, cx1) = (col(math.min(x0, x1) - padX), col(math.max(x0, x1) + padX))
    val (cy0, cy1) = (row(math.min(y0, y1) - padY), row(math.max(y0, y1) + padY))
    if (cx0 == cx1 && cy0 == cy1) return Array(cy0 * nx + cx0) // the widened segment stays in one cell
    // Clip against each cell of the bounding box; insertion-sort the hits by entry.
    val cells = new Array[Int]((cx1 - cx0 + 1) * (cy1 - cy0 + 1))
    val entries = new Array[Double](cells.length)
    var hits = 0
    var cy = cy0
    while (cy <= cy1) {
      var cx = cx0
      while (cx <= cx1) {
        val t = Grid.entry(x0, y0, x1, y1, Rect(minX + cx * cellW - padX, minY + cy * cellH - padY,
          minX + (cx + 1) * cellW + padX, minY + (cy + 1) * cellH + padY))
        if (!t.isNaN) {
          var j = hits
          while (j > 0 && entries(j - 1) > t) { entries(j) = entries(j - 1); cells(j) = cells(j - 1); j -= 1 }
          entries(j) = t
          cells(j) = cy * nx + cx
          hits += 1
        }
        cx += 1
      }
      cy += 1
    }
    java.util.Arrays.copyOf(cells, hits)
  }
}

object Grid {

  /** Columns cx0..cx1 and rows cy0..cy1 of a grid with `nx` columns. */
  final case class CellBox(cx0: Int, cx1: Int, cy0: Int, cy1: Int, nx: Int) {
    def contains(cell: Int): Boolean = {
      val cx = cell % nx
      val cy = cell / nx
      cx0 <= cx && cx <= cx1 && cy0 <= cy && cy <= cy1
    }
  }

  /** Liang–Barsky clipping: the parameter in [0, 1] at which the segment
    * (x0, y0)→(x1, y1) enters the closed rectangle `re`, or NaN if it
    * misses it.
    */
  def entry(x0: Double, y0: Double, x1: Double, y1: Double, re: Rect): Double = {
    val dx = x1 - x0
    val dy = y1 - y0
    var t0 = 0.0
    var t1 = 1.0
    if (dx == 0) { if (x0 < re.minX || x0 > re.maxX) return Double.NaN }
    else {
      val a = (re.minX - x0) / dx; val b = (re.maxX - x0) / dx
      t0 = math.max(t0, math.min(a, b)); t1 = math.min(t1, math.max(a, b))
    }
    if (dy == 0) { if (y0 < re.minY || y0 > re.maxY) return Double.NaN }
    else {
      val a = (re.minY - y0) / dy; val b = (re.maxY - y0) / dy
      t0 = math.max(t0, math.min(a, b)); t1 = math.min(t1, math.max(a, b))
    }
    if (t0 > t1) Double.NaN else t0
  }

  /** Grid with `cells × cells` cells over the network's bounding box. */
  def over(net: RoadNetwork, cells: Int): Grid = {
    val (minX, minY, maxX, maxY) = net.boundingBox
    val w = math.max(1e-6, maxX - minX)
    val h = math.max(1e-6, maxY - minY)
    Grid(minX, minY, w / cells + 1e-9, h / cells + 1e-9, cells, cells)
  }
}
