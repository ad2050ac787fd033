package repro.traj

import repro.SparkSpec
import repro.core.PaperFixture

class PathOpsSpec extends SparkSpec {
  import PaperFixture._

  test("pathEdges skips 0 entries and chains vertices") {
    val es = PathOps.pathEdges(net, tu11)
    assert(es.length == 7)
    assert(es.head.from == v1 && es.last.to == v8)
    es.sliding(2).foreach { case Array(a, b) => assert(a.to == b.from); case _ => () }
  }

  test("mappedLocations aligns samples with edges via T'") {
    val path = PathOps.resolve(net, tu11)
    val locs = tu11.dists.indices.map(path.mapped)
    assert(locs.length == 7)
    // l0 on (v1,v2), l1 on (v3,v4), l2 and l3 on (v5,v6), l4 on (v6,v7),
    // l5 and l6 on (v7,v8) — from Fig. 2a.
    assert(locs(0).edge.from == v1 && locs(0).edge.to == v2)
    assert(locs(1).edge.from == v3 && locs(1).edge.to == v4)
    assert(locs(2).edge.from == v5 && locs(3).edge.from == v5)
    assert(locs(4).edge.from == v6)
    assert(locs(5).edge.from == v7 && locs(6).edge.from == v7)
  }

  test("sampleOffsets is non-decreasing and bounded by path length") {
    Seq(tu11, tu12, tu13).foreach { in =>
      val path = PathOps.resolve(net, in)
      val offs = path.offsets
      offs.sliding(2).foreach { case Array(a, b) => assert(b >= a); case _ => () }
      assert(offs.head >= 0 && offs.last <= path.edges.map(_.length).sum + 1e-9)
    }
  }

  test("locateAt at 0 is the path start; past the end clamps to the last edge") {
    val path = PathOps.resolve(net, tu11)
    val l0 = path.locateAt(0.0)
    assert(l0.edge.from == v1 && l0.rd == 0.0)
    val lEnd = path.locateAt(1e9)
    assert(lEnd.edge.from == v7 && lEnd.rd == 1.0)
  }

  test("locateAt inverts sampleOffsets at sample positions") {
    val path = PathOps.resolve(net, tu11)
    val offs = path.offsets
    offs.indices.foreach { i =>
      val l = path.locateAt(offs(i))
      // Boundary samples (rd = 0 or 1) may legitimately resolve to the
      // adjacent edge; compare network positions instead of edges.
      val dExpected = offs(i)
      var before = 0.0
      var found = false
      path.edges.foreach { e =>
        if (e == l.edge) { assert(math.abs(before + l.ndist - dExpected) < 1e-6); found = true }
        if (!found) before += e.length
      }
      assert(found, s"sample $i: ${path.mapped(i)}")
    }
  }

  test("between returns the samples at their timestamps and interpolates in between") {
    val path = PathOps.resolve(net, tu11)
    assert(path.between(1, 100, 120, 100) == path.mapped(1))
    assert(path.between(1, 100, 120, 120) == path.mapped(2))
    val mid = path.between(1, 100, 120, 110)
    assert(mid == path.locateAt(path.offsets(1) + 0.5 * (path.offsets(2) - path.offsets(1))))
  }

  test("instance invariants are enforced") {
    intercept[IllegalArgumentException] {
      Instance(0.5, v1, Array(1, 2), Array(true), Array(0.5))
    }
    intercept[IllegalArgumentException] {
      Instance(0.5, v1, Array(1, 2), Array(true, true), Array(0.5))
    }
  }

  test("UTraj invariants are enforced") {
    intercept[IllegalArgumentException] {
      UTraj(9L, Array(1, 2, 3), 1, Array.empty)
    }
    intercept[IllegalArgumentException] {
      // instance sample count must match times length
      UTraj(9L, Array(1, 2), 1, Array(tu11))
    }
  }
}
