package repro.core

/** Z-order grid over the square region A enclosing all trajectories (§III-A).
  *
  * The region has side `U`; it is split into an `l × l` grid of cells with
  * side `delta = U / l`, where `l` is a power of two. Each cell has a z-value
  * (Morton code — horizontal bit first, MSB first, per Example 2: x=010,
  * y=101 → z=011001) and a reference point (the cell center).
  */
final case class ZGrid(minX: Double, minY: Double, l: Int, delta: Double)
    extends Serializable {
  require(l >= 2 && (l & (l - 1)) == 0, s"grid side $l must be a power of 2")

  private val bits: Int = java.lang.Integer.numberOfTrailingZeros(l)

  /** Side length of the square region A. */
  def U: Double = l * delta

  /** Total number of cells, i.e. the alphabet size of the RP-Trie. */
  def numCells: Int = l * l

  /** √2·δ/2 — the max distance between a point and its reference point, used
    * as the slack term of `LB_o`/`LB_t` (Eq. 2–3).
    */
  val halfDiag: Double = math.sqrt(2.0) * delta / 2.0

  private def clamp(c: Int): Int = if (c < 0) 0 else if (c >= l) l - 1 else c

  /** Grid coordinates (cx, cy) of a point, clamped into the region. */
  def cellOf(p: Point): (Int, Int) =
    (clamp(math.floor((p.x - minX) / delta).toInt),
     clamp(math.floor((p.y - minY) / delta).toInt))

  /** z-value of cell (cx, cy): `ZGrid.interleave` at this grid's bits. */
  def zOf(cx: Int, cy: Int): Int = ZGrid.interleave(cx, cy, bits)

  def zOf(p: Point): Int = { val (cx, cy) = cellOf(p); zOf(cx, cy) }

  /** cx and cy of the cell with z-value `z` (the inverse of `zOf`): its odd
    * and even bits.
    */
  private def cellX(z: Int): Int = evenBits(z >> 1)
  private def cellY(z: Int): Int = evenBits(z)

  private def evenBits(z: Int): Int = {
    var c = 0
    var b = 0
    while (b < bits) { c |= ((z >> (2 * b)) & 1) << b; b += 1 }
    c
  }

  /** Reference point (center) of the cell with z-value `z`, and its coordinates. */
  def refPoint(z: Int): Point = Point(refX(z), refY(z))
  def refX(z: Int): Double = minX + (cellX(z) + 0.5) * delta
  def refY(z: Int): Double = minY + (cellY(z) + 0.5) * delta

  /** Lower-left corner of the cell with z-value `z`. */
  def cornerX(z: Int): Double = minX + cellX(z) * delta
  def cornerY(z: Int): Double = minY + cellY(z) * delta

  /** Min distance from `q` to the closed rectangle of the cell with
    * lower-left corner (x0, y0) — the d′(q, g) of Eq. 15, valid for measures
    * without the triangle inequality. A kernel decodes z once (`cornerX`,
    * `cornerY`) and calls this per query point.
    */
  def cellMinDist(q: Point, x0: Double, y0: Double): Double = {
    val dx = if (q.x < x0) x0 - q.x else if (q.x > x0 + delta) q.x - (x0 + delta) else 0.0
    val dy = if (q.y < y0) y0 - q.y else if (q.y > y0 + delta) q.y - (y0 + delta) else 0.0
    math.sqrt(dx * dx + dy * dy)
  }

  /** Reference trajectory as a z-value sequence with consecutive duplicates
    * collapsed (Definition 4; collapsing is distance-bound-safe for all
    * supported measures — see DESIGN.md).
    */
  def refSeq(pts: Array[Point]): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int](pts.length)
    var i = 0
    while (i < pts.length) {
      val z = zOf(pts(i))
      if (out.isEmpty || out.last != z) out += z
      i += 1
    }
    out.toArray
  }

  /** Distinct z-values of a trajectory (order dropped) — the `Z_i` sets fed
    * to the hitting-set optimization for order-independent measures (§III-C).
    */
  def refSet(pts: Array[Point]): Array[Int] = pts.map(zOf(_)).distinct.sorted

  /** Reference trajectory as points (one per entry of `refSeq`). */
  def refPoints(zs: Array[Int]): Array[Point] = zs.map(refPoint)
}

object ZGrid {
  /** Morton interleave of the low `bits` bits of cx and cy (at most 15):
    * x bit above y bit at every level.
    */
  def interleave(cx: Int, cy: Int, bits: Int): Int = {
    var z = 0
    var b = 0
    while (b < bits) {
      z |= ((cx >> b) & 1) << (2 * b + 1)
      z |= ((cy >> b) & 1) << (2 * b)
      b += 1
    }
    z
  }

  /** Build a grid from a dataset MBR and requested cell side `delta`.
    *
    * The region is the square of side `U = max(width, height)` anchored at
    * the MBR's lower-left corner, padded by one δ so boundary points fall
    * strictly inside. `l` is the smallest power of two with `l·delta ≥ U`,
    * clamped to [2, 4096] (the clamp adjusts δ upward for extreme requests
    * and keeps z-values within 24 bits — see DESIGN.md).
    */
  def fit(mbr: MBR, delta: Double, maxSide: Int = 4096): ZGrid = {
    require(delta > 0, "delta must be positive")
    val u = math.max(math.max(mbr.width, mbr.height), delta) + delta
    var l = 2
    while (l * delta < u && l < maxSide) l <<= 1
    val effDelta = if (l * delta >= u) delta else u / l
    ZGrid(mbr.minX, mbr.minY, l, effDelta)
  }
}
