"""General-purpose mining entrypoint: run any algorithm on any dataset
substitute and print the convoys found.

Usage:
  python jobs/mine_convoys.py --algo k2hop --dataset tdrive --m 3 --k 24
"""
import argparse
from contextlib import closing


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--algo", default="k2hop",
                   choices=["k2hop", "k2hop-spark", "vcoda", "vcoda-star", "pccd", "spare", "dcm"])
    p.add_argument("--dataset", default="trucks", choices=["trucks", "tdrive", "brinkhoff"])
    p.add_argument("--size", default="test", choices=["test", "bench"])
    p.add_argument("--store", default="file", choices=["file", "rdbms", "lsmt"])
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--k", type=int, default=0, help="0 → 2nd point of the dataset's k grid")
    p.add_argument("--eps", type=float, default=0.0, help="0 → dataset reference eps")
    args = p.parse_args()

    from repro.experiments import dataset, make_store, spark_session
    from repro.core.k2hop import k2hop
    from repro.core.k2hop_spark import k2hop_spark
    from repro.baselines.vcoda import vcoda, vcoda_star
    from repro.baselines.cmc import pccd
    from repro.baselines.spare import spare
    from repro.baselines.dcm import dcm

    ds = dataset(args.dataset, args.size)
    k = args.k or ds.k_grid(2)[1]
    eps = args.eps or ds.eps_ref

    if args.algo in ("k2hop-spark", "spare", "dcm"):
        spark = spark_session()
        sdf = spark.createDataFrame(ds.df)
        if args.algo == "k2hop-spark":
            out = k2hop_spark(spark, sdf, args.m, k, eps).convoys
        elif args.algo == "spare":
            out = spare(spark, sdf, args.m, k, eps)
        else:
            out = dcm(spark, sdf, args.m, k, eps)
        spark.stop()
    else:
        with closing(make_store(args.store, ds.df)) as store:
            if args.algo == "k2hop":
                out = k2hop(store, args.m, k, eps).convoys
            elif args.algo == "vcoda":
                out = vcoda(store, args.m, k, eps)
            elif args.algo == "vcoda-star":
                out = vcoda_star(store, args.m, k, eps)
            else:
                out = pccd(store, args.m, k, eps)

    print(f"{args.algo} on {args.dataset}({args.size}) m={args.m} k={k} eps={eps}: "
          f"{len(out)} convoys")
    for v in out:
        print(" ", v)


if __name__ == "__main__":
    main()
