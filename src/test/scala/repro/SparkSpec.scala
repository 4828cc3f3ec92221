package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs started by `f`, told apart by a local property. A marker job
    * run afterwards bounds the count: the listener bus delivers events in
    * order, so once the marker's start arrives every job of `f` has been seen.
    */
  def jobsRunBy(f: => Unit): Int = {
    val sc = spark.sparkContext
    val tag = "repro.test.jobs"
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(tag))).foreach(seen.add)
    }
    sc.addSparkListener(listener)
    try {
      try {
        sc.setLocalProperty(tag, "counted")
        f
        sc.setLocalProperty(tag, "marker")
        sc.parallelize(Seq(1), 1).count()
      } finally sc.setLocalProperty(tag, null)
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!seen.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(seen.contains("marker"), "the listener never saw the marker job")
      seen.toArray.count(_ == "counted")
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
