package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Tables

/** Entrypoints, one per reproduced evaluation table:
  *
  * {{{
  * sbt "bench/runMain repro.jobs.TableIV"
  * }}}
  *
  * Each prints the table in the paper's layout to stdout (see EXPERIMENTS.md
  * for the paper-vs-measured record).
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

object TableIII {
  def main(args: Array[String]): Unit = { Tables.tableIII(Jobs.session("tableIII")) }
}

object TableIV {
  def main(args: Array[String]): Unit = { Tables.tableIV(Jobs.session("tableIV")) }
}

object TableV {
  def main(args: Array[String]): Unit = { Tables.tableV(Jobs.session("tableV")) }
}

object TableVI {
  def main(args: Array[String]): Unit = { Tables.tableVI(Jobs.session("tableVI")) }
}

object TableVII {
  def main(args: Array[String]): Unit = { Tables.tableVII(Jobs.session("tableVII")) }
}

object TableVIII {
  def main(args: Array[String]): Unit = { Tables.tableVIII(Jobs.session("tableVIII")) }
}

object TableIX {
  def main(args: Array[String]): Unit = { Tables.tableIX(Jobs.session("tableIX")) }
}
