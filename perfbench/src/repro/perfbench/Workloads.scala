package repro.perfbench

import repro.core.Matrix
import repro.mf.ModelZoo

/** One benchmark input: a `ModelZoo.factorModel` shape plus the query K.
  * The seed is the only thing a run varies; the shape fixes the regime. */
final case class Workload(
    name: String,
    users: Int, items: Int, f: Int,
    userClusters: Int, userSpread: Double,
    itemClusters: Int, itemSpread: Double,
    userNormSigma: Double, itemNormSigma: Double,
    k: Int,
) {
  def generate(seed: Long): (Matrix, Matrix) =
    ModelZoo.factorModel(users, items, f, userClusters, userSpread, itemClusters, itemSpread,
      userNormSigma, itemNormSigma, seed)
}

/** The model regimes. Whether MM or an index wins depends on how
  * concentrated the users are and how spread the item norms are, so each
  * workload puts a different layer on the critical path. Sizes are scaled so
  * that one serve of every strategy, RECOPT included, repeats about ten times
  * within a run of 40 s on 4 cores.
  */
object Workloads {
  val All: Seq[Workload] = Seq(
    // Netflix-like diffuse users: no index can prune (RECDEX visits the whole
    // catalog), so MM wins and the time goes to GEMM, K=50 heap extraction
    // and encoding the output rows.
    Workload("diffuse-k50", users = 8000, items = 1600, f = 50,
      userClusters = 16, userSpread = 6.0, itemClusters = 16, itemSpread = 6.0,
      userNormSigma = 0.25, itemNormSigma = 0.10, k = 50),
    // R2-like concentrated users: RECDEX visits about half the catalog and
    // runs level with MM; the time goes to the index walk, GEMM only runs in
    // the head.
    Workload("concentrated-k10", users = 12000, items = 1600, f = 50,
      userClusters = 4, userSpread = 0.40, itemClusters = 8, itemSpread = 1.5,
      userNormSigma = 0.15, itemNormSigma = 0.35, k = 10),
  )

  def byName(name: String): Option[Workload] = All.find(_.name == name)
}
