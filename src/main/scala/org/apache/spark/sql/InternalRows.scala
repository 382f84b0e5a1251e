package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType

/** DataFrames read and built as Spark's internal rows, with no conversion to
  * or from [[Row]]. Lives in this package because `internalCreateDataFrame`
  * is `private[sql]`. Rows read from [[rdd]] may be one reused object. */
object InternalRows {
  private def plan(df: DataFrame) = df.asInstanceOf[classic.Dataset[Row]].queryExecution

  /** The rows of `df`, lazily, one RDD partition per partition of its plan. */
  def rdd(df: DataFrame): RDD[InternalRow] = plan(df).toRdd

  /** Every row of `df`, collected to the driver. */
  def collect(df: DataFrame): Array[InternalRow] = plan(df).executedPlan.executeCollect()

  /** A DataFrame over `rows`, which must match `schema`. */
  def toDataFrame(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): DataFrame =
    spark.asInstanceOf[classic.SparkSession].internalCreateDataFrame(rows, schema)
}
