package repro.network

/** A directed edge of the road network.
  *
  * @param from   source vertex id
  * @param to     destination vertex id
  * @param outNo  outgoing edge number (Def. 6): this edge is the `outNo`-th
  *               exit edge of `from`, 1-based
  * @param length network length of the edge (metres)
  */
final case class Edge(from: Int, to: Int, outNo: Int, length: Double)

/** A directed road network G = (V, E) (Def. 1).
  *
  * Vertex ids are dense `0 until numVertices`; `xs(v)`/`ys(v)` are planar
  * coordinates (metres). Out-edges of each vertex are ordered — the position
  * of an edge in `outEdges(v)` determines its outgoing edge number, the unit
  * of TED/UTCQ edge-sequence encoding.
  */
final class RoadNetwork(
    val xs: Array[Double],
    val ys: Array[Double],
    val outEdges: Array[Array[Edge]],
) extends Serializable {

  val numVertices: Int = xs.length
  val numEdges: Int = outEdges.iterator.map(_.length).sum

  /** Maximum number of outgoing edges over all vertices — the `o` used to
    * size fixed-width edge codes (⌈log2(o+1)⌉ bits including the 0 marker).
    */
  val maxOutDegree: Int = if (numVertices == 0) 0 else outEdges.iterator.map(_.length).max

  def avgOutDegree: Double = if (numVertices == 0) 0 else numEdges.toDouble / numVertices

  /** The `no`-th (1-based) outgoing edge of vertex `v`. */
  def edge(v: Int, no: Int): Edge = {
    val es = outEdges(v)
    require(no >= 1 && no <= es.length, s"vertex $v has ${es.length} out-edges, asked for #$no")
    es(no - 1)
  }

  /** The outgoing edge number of (from -> to), or -1 if absent (also when
    * `from` is no vertex of the network).
    */
  def outNoOf(from: Int, to: Int): Int = {
    if (from < 0 || from >= numVertices) return -1
    val es = outEdges(from)
    var i = 0
    while (i < es.length) { if (es(i).to == to) return es(i).outNo; i += 1 }
    -1
  }

  def hasEdge(from: Int, to: Int): Boolean = outNoOf(from, to) > 0

  def edgeBetween(from: Int, to: Int): Option[Edge] = {
    val no = outNoOf(from, to)
    if (no > 0) Some(edge(from, no)) else None
  }

  /** Bounding box (minX, minY, maxX, maxY) of the vertex coordinates. */
  lazy val boundingBox: (Double, Double, Double, Double) = {
    var minX = Double.MaxValue; var minY = Double.MaxValue
    var maxX = Double.MinValue; var maxY = Double.MinValue
    var v = 0
    while (v < numVertices) {
      if (xs(v) < minX) minX = xs(v); if (xs(v) > maxX) maxX = xs(v)
      if (ys(v) < minY) minY = ys(v); if (ys(v) > maxY) maxY = ys(v)
      v += 1
    }
    (minX, minY, maxX, maxY)
  }
}
