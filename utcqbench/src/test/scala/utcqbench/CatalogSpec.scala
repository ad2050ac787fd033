package utcqbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** BENCHMARK.json declares exactly the workloads and metrics the benchmark prints. */
class CatalogSpec extends AnyFunSuite {

  private lazy val json = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def declared(key: String): Seq[(String, String)] =
    json.get(key).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq

  test("workloads") {
    assert(json.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq == Main.workloads)
  }

  test("end-to-end metrics, with units") {
    assert(declared("end_to_end") == Main.endToEnd)
  }

  test("per-layer metrics, with units") {
    assert(declared("per_layer") == Main.perLayer)
  }
}
