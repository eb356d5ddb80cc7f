#!/usr/bin/env python3
"""Validate four cost models against measured ground truth — a small
live rendition of the paper's Table V pipeline.

Measurements go through the result store under ``$REPRO_CACHE``
(default: the checkout's ``.cache/``), so a second run profiles
nothing.

Run:  python examples/validate_cost_models.py [uarch] [n_blocks]
"""

import sys

from repro.corpus import build_corpus
from repro.eval.pipeline import Experiment
from repro.eval.reporting import format_table
from repro.eval.validation import validate
from repro.models import (IacaModel, IthemalModel, LlvmMcaModel,
                          OsacaModel)


def main() -> None:
    uarch = sys.argv[1] if len(sys.argv) > 1 else "haswell"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 400

    print(f"building a corpus slice (~{n} blocks) ...")
    corpus = build_corpus(scale=n / 358561.0, seed=0)
    print(f"  {len(corpus)} blocks from "
          f"{', '.join(corpus.applications())}")

    models = [IacaModel(), LlvmMcaModel(), IthemalModel(), OsacaModel()]
    print(f"profiling on simulated {uarch} and training the learned "
          f"model on half of the measurements ...")
    measured = Experiment(seed=0, uarches=(uarch,)).measured(
        uarch, corpus=corpus)
    result = validate(corpus, uarch, models, measured)

    print(f"  {result.profiled_fraction:.1%} of blocks profiled "
          f"successfully; {len(result.rows)} held-out blocks "
          f"evaluated\n")

    rows = []
    for model in result.model_names:
        rows.append((model,
                     round(result.overall_error(model), 4),
                     round(result.weighted_overall_error(model), 4),
                     round(result.kendall_tau(model), 4),
                     f"{result.coverage(model):.0%}"))
    print(format_table(
        ["Model", "avg error", "weighted error", "Kendall tau",
         "coverage"],
        rows, title=f"model accuracy on {uarch} "
                    f"(paper Table V: IACA .18, llvm-mca .18, "
                    f"Ithemal .13, OSACA .39 on Haswell)"))

    print("\nper-application average error (weighted):")
    for model in result.model_names:
        per_app = result.per_application_error(model)
        cells = ", ".join(f"{app}={err:.3f}"
                          for app, err in per_app.items()
                          if err is not None)
        print(f"  {model:9s} {cells}")


if __name__ == "__main__":
    main()
