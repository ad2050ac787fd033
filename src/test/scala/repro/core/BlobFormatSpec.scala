package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.zip.CRC32
import repro.SparkSpec
import repro.network.RoadNetworkGen
import repro.traj.{UTraj, UncertainTrajGen}
import repro.util.BitReader

/** The stored form of a compressed trajectory is its blob plus the widths
  * that wrote it; everything else is parsed from the blob. These tests pin
  * the bit format and the parse boundary.
  */
class BlobFormatSpec extends SparkSpec {

  private def setup(profile: String): (DatasetMeta, Params, IndexedSeq[UTraj]) = {
    val (netP, trajP, _) = repro.SynthData.profiles(profile)
    val net = RoadNetworkGen.generate(netP)
    val params = repro.SynthData.paramsFor(profile)
    (DatasetMeta.of(net, trajP.defaultInterval, params), params, UncertainTrajGen.dataset(net, trajP, 100))
  }

  private lazy val (meta, params, trajs) = setup("CD")
  private lazy val cts = trajs.take(20).map(t => Compressor.compress(meta, params, t).ct)

  private def contents(t: UTraj) =
    (t.id, t.times.toSeq, t.instances.toSeq.map(in =>
      (in.prob, in.sv, in.edges.toSeq, in.tflags.toSeq, in.dists.toSeq)))

  test("blobs are bit-identical to the recorded format (CRC32 of the first 100 per profile)") {
    // Recorded from the committed encoder; a different value is a format change.
    val golden = Map("DK" -> (0x0b76bf9dL, 68668L), "CD" -> (0x2292cfa1L, 33698L), "HZ" -> (0x1f307395L, 126744L))
    golden.foreach { case (profile, (crc, bits)) =>
      val (m, p, ts) = setup(profile)
      val c = new CRC32
      var total = 0L
      ts.foreach { t =>
        val ct = Compressor.compress(m, p, t).ct
        c.update(ct.blob)
        total += ct.blobBits
      }
      assert((c.getValue, total) == ((crc, bits)), profile)
    }
  }

  test("the parse's per-component bit counts equal the recorded accounting (first 100 per profile)") {
    // Table 8's component ratios read these counts; each total is the
    // golden bit count of the test above.
    val golden = Map(
      "DK" -> Sizes(3442, 26155, 14638, 7381, 7038, 1904, 8110),
      "CD" -> Sizes(5302, 9213, 7761, 2211, 2583, 1296, 5332),
      "HZ" -> Sizes(7642, 52704, 23588, 13546, 14993, 2004, 12267))
    golden.foreach { case (profile, sizes) =>
      val (m, p, ts) = setup(profile)
      assert(ts.map(t => Compressor.compress(m, p, t).ct.sizes).reduce(_ + _) == sizes, profile)
    }
  }

  test("the parsed layout reads back every component the encoder wrote") {
    trajs.foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      assert(ct.deltaOffs.length == t.times.length - 1)
      assert(ct.numInstances == t.instances.length)
      assert((ct.refs.map(_.origIdx) ++ ct.nonRefs.map(_.origIdx)).sorted.toSeq == t.instances.indices)
      ct.refs.indices.foreach(s => assert(Decompressor.refInstance(ct, s).sv == t.instances(ct.refs(s).origIdx).sv))
      ct.nonRefs.indices.foreach { k =>
        // Each factor offset (`comEFactorOffs`) is where that factor's S
        // field starts, and each span is where its entries start in E(nonref).
        val nl = ct.nonRefs(k)
        val lay = RefFactors.ELayout(ct.refs(nl.refSlot).eLen, meta.symBits)
        val factors = RefFactors.decodeE(lay, new BitReader(ct.bits, nl.comEOff))
        val starts = factors.map {
          case RefFactors.Slm(s, _, _) => s
          case RefFactors.Sl(s, _)     => s
          case _: RefFactors.Sm        => lay.refLen
        }
        assert(nl.comEFactorOffs.toSeq.map(ct.bits.readBits(_, lay.sBits).toInt) == starts)
        val edges = RefFactors.reconstructE(Decompressor.refInstance(ct, nl.refSlot).edges, factors)
        assert(edges.toSeq == t.instances(nl.origIdx).edges.toSeq)
        assert((nl.comEFactorSpans :+ edges.length).sliding(2).forall(p => p.length < 2 || p(0) < p(1)))
      }
    }
  }

  test("a blob cut short by k bits fails in the parse with an error naming the trajectory") {
    cts.foreach { ct =>
      Seq(1, 2, 7, 8, 9, ct.blobBits / 2, ct.blobBits - 1).distinct.filter(k => k >= 1 && k < ct.blobBits).foreach { k =>
        val cut = ct.copy(blobBits = ct.blobBits - k)
        val e = intercept[IllegalArgumentException](Decompressor.decompress(meta, cut))
        assert(e.getMessage.startsWith(s"trajectory ${ct.id}:"), e.getMessage)
      }
    }
  }

  test("a blob with any one bit flipped decodes or fails with an error naming the trajectory") {
    // Every single-bit flip of 20 CD and 20 HZ blobs. The parse checks each
    // field it reads, so no flip ends in a NullPointerException or an index
    // error deep inside a decoder.
    val (hzMeta, hzParams, hzTrajs) = setup("HZ")
    val hzCts = hzTrajs.take(20).map(t => Compressor.compress(hzMeta, hzParams, t).ct)
    Seq(meta -> cts, hzMeta -> hzCts).foreach { case (m, blobs) =>
      var failed = 0
      blobs.foreach { ct =>
        (0 until ct.blobBits).foreach { b =>
          val blob = ct.blob.clone()
          blob(b >>> 3) = (blob(b >>> 3) ^ (0x80 >>> (b & 7))).toByte
          try Decompressor.decompress(m, ct.copy(blob = blob))
          catch {
            case e: IllegalArgumentException =>
              failed += 1
              assert(e.getMessage.startsWith(s"trajectory ${ct.id}:"), s"bit $b: ${e.getMessage}")
          }
        }
      }
      assert(failed > 0)
    }
  }

  test("a blob with bits beyond its last component fails in the parse") {
    cts.foreach { ct =>
      val long = ct.copy(blob = ct.blob :+ 0.toByte, blobBits = ct.blobBits + 8)
      val e = intercept[IllegalArgumentException](long.refs)
      assert(e.getMessage.contains(s"trajectory ${ct.id}") && e.getMessage.contains(s"${ct.blobBits}"))
    }
  }

  test("decoding with widths other than the blob's fails naming the trajectory") {
    // An HZ blob written at η_D = 1/128, read at η_D = 1/64 or with Ts = 10:
    // the component decoders use the blob's own meta, and decompress refuses
    // a different one instead of failing deep inside or returning wrong times.
    val (m, p, ts) = setup("HZ")
    val ct = Compressor.compress(m, p, ts.head).ct
    Seq(m.copy(etaD = 1.0 / 64), m.copy(ts = 10)).foreach { other =>
      val e = intercept[IllegalArgumentException](Decompressor.decompress(other, ct))
      assert(e.getMessage.startsWith(s"trajectory ${ct.id}:"), e.getMessage)
    }
    assert(Decompressor.decompress(m, ct).times.toSeq == ts.head.times.toSeq)
  }

  test("Java serialization keeps only the blob and rebuilds the layout") {
    cts.zip(trajs).foreach { case (ct, t) =>
      def serialize(c: CompressedTraj): Array[Byte] = {
        val bytes = new ByteArrayOutputStream
        val out = new ObjectOutputStream(bytes)
        out.writeObject(c)
        out.close()
        bytes.toByteArray
      }
      val untouched = serialize(ct.copy())
      val before = Decompressor.decompress(meta, ct) // layout and bits now materialized
      val bytes = serialize(ct)
      assert(bytes.length == untouched.length, "the derived layout must not be serialized")
      val back = new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[CompressedTraj]
      assert(back.blob.sameElements(ct.blob) && back.blobBits == ct.blobBits && back.meta == ct.meta)
      assert(contents(Decompressor.decompress(back.meta, back)) == contents(before), s"traj ${t.id}")
      assert(back.deltaOffs.toSeq == ct.deltaOffs.toSeq && back.refs.toSeq == ct.refs.toSeq)
    }
  }
}
