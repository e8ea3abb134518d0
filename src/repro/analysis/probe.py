"""The robustness probe: agreement rate vs model strength, tabulated.

``repro probe`` answers the ROADMAP's "where do the guarantees bend?"
question with one deterministic report spanning both ladder axes:

- **Adversary rungs** (strength ordering ``oblivious < noisy < late-δ <
  adaptive``): the same conciliator, same ``(n, ε)``, swept under each
  rung at fixed trial count.  The paper proves the ``1 - ε`` floor only
  for the oblivious endpoint; the probe measures how agreement degrades
  as the adversary is allowed to see more.
- **Register models** (``atomic``, ``regular``, ``safe``): Algorithms 1-2
  re-run with weakened read resolution.  Agreement may sag, but validity
  must never fail and every process must still terminate — the hard
  oracles stay hard under a declared weakening.

Every number is a pure function of ``(seed, n, trials, parameters)``, so
the committed ``benchmarks/PROBE_ladder.json`` regenerates byte-identically
(modulo the wall-clock stamp, which is excluded from the payload).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import catalog
from repro.analysis.experiments import run_conciliator_trials
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.memory.semantics import REGISTER_MODEL_KINDS, RegisterModel
from repro.runtime.adaptive import ADAPTIVE_FAMILIES, AdaptiveSpec
from repro.runtime.adversary import ADVERSARY_LADDER, AdversarySpec

__all__ = ["ProbeReport", "run_probe"]


@dataclass
class ProbeReport:
    """One probe sweep: ladder rungs × algorithms plus the register leg."""

    seed: int
    n: int
    trials: int
    inner: str
    noise: float
    delay: int
    #: Per-algorithm rung measurements, in ladder order (weakest first):
    #: ``{algorithm: [{rung, adversary, agreement_rate, ...}, ...]}``.
    ladder: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: Register-model leg: ``[{algorithm, model, agreement_rate,
    #: validity_failures, ...}, ...]``.
    register_models: List[Dict[str, Any]] = field(default_factory=list)

    _JSON_VERSION = 1

    @property
    def monotone(self) -> Dict[str, bool]:
        """Whether each algorithm's agreement degrades monotonically
        (weakly) from the oblivious rung down to the adaptive one."""
        verdicts: Dict[str, bool] = {}
        for algorithm, rows in self.ladder.items():
            rates = [row["agreement_rate"] for row in rows]
            verdicts[algorithm] = all(
                earlier >= later for earlier, later in zip(rates, rates[1:])
            )
        return verdicts

    @property
    def hard_oracles_hold(self) -> bool:
        """No validity failure anywhere, under any model or rung."""
        rung_rows = [row for rows in self.ladder.values() for row in rows]
        return all(
            row["validity_failures"] == 0
            for row in rung_rows + self.register_models
        )

    @property
    def ok(self) -> bool:
        return self.hard_oracles_hold and all(self.monotone.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self._JSON_VERSION,
            "seed": self.seed,
            "n": self.n,
            "trials": self.trials,
            "inner": self.inner,
            "noise": self.noise,
            "delay": self.delay,
            "ladder": self.ladder,
            "register_models": self.register_models,
            "monotone": self.monotone,
            "hard_oracles_hold": self.hard_oracles_hold,
            "ok": self.ok,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ProbeReport":
        expect_versioned(
            data, "probe report", cls._JSON_VERSION, key="version"
        )
        return cls(
            seed=int(data["seed"]),
            n=int(data["n"]),
            trials=int(data["trials"]),
            inner=str(data["inner"]),
            noise=float(data["noise"]),
            delay=int(data["delay"]),
            ladder={
                str(algorithm): list(rows)
                for algorithm, rows in data.get("ladder", {}).items()
            },
            register_models=list(data.get("register_models", [])),
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write the canonical JSON report to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    def render(self) -> str:
        """Human-oriented tables: one per algorithm plus the register leg."""
        sections: List[str] = []
        for algorithm in sorted(self.ladder):
            rows = [
                [
                    row["rung"],
                    row["adversary"],
                    f"{row['agreement_rate']:.3f}",
                    row["validity_failures"],
                ]
                for row in self.ladder[algorithm]
            ]
            verdict = "monotone" if self.monotone[algorithm] else "NOT MONOTONE"
            sections.append(render_table(
                ["rung", "adversary", "agreement", "validity failures"],
                rows,
                title=(
                    f"adversary ladder: {algorithm}, n={self.n}, "
                    f"{self.trials} trials ({verdict})"
                ),
            ))
        if self.register_models:
            rows = [
                [
                    row["algorithm"],
                    row["model"],
                    f"{row['agreement_rate']:.3f}",
                    row["validity_failures"],
                ]
                for row in self.register_models
            ]
            sections.append(render_table(
                ["algorithm", "register model", "agreement",
                 "validity failures"],
                rows,
                title=(
                    f"register models: n={self.n}, {self.trials} trials "
                    "(hard oracles must hold)"
                ),
            ))
        return "\n\n".join(sections)


def _ladder_specs(
    inner: str, noise: float, delay: int
) -> List[Tuple[str, str, Optional[Any]]]:
    """The rungs in ladder order: (rung, label, adversary spec or None)."""
    noisy = AdversarySpec("noisy", inner=inner, noise=noise)
    late = AdversarySpec("late", inner=inner, delay=delay)
    adaptive = AdaptiveSpec(inner)
    return [
        ("oblivious", "random schedule", None),
        ("noisy", noisy.describe(), noisy),
        ("late", late.describe(), late),
        ("adaptive", f"adaptive-{inner}", adaptive),
    ]


def run_probe(
    *,
    n: int = 8,
    trials: int = 400,
    seed: int = 2012,
    algorithms: Sequence[str] = ("sifting",),
    inner: str = "pending-reads",
    noise: float = 0.8,
    delay: int = 1,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ProbeReport:
    """Sweep the adversary ladder and the register models; tabulate.

    ``inner`` names the adaptive strategy wrapped by the noisy/late rungs
    and used as the adaptive endpoint (``pending-reads`` is the default:
    the documented Algorithm 2 killer, whose staleness sensitivity makes
    the ladder separation visible).  ``noise``/``delay`` set the rung
    strengths.  The register-model leg always runs both Algorithms 1-2
    (sifting and snapshot), regardless of ``algorithms``.
    """
    if inner not in ADAPTIVE_FAMILIES:
        raise ConfigurationError(
            f"unknown inner adaptive strategy {inner!r}; choose from "
            f"{ADAPTIVE_FAMILIES}"
        )
    # The probe sweeps the algorithms with a paper decay bound
    # (Algorithms 1-2), the same set ``decay`` and ``search`` offer.
    probed = sorted(catalog.names("decay_bound"))
    for algorithm in algorithms:
        if algorithm not in probed:
            raise ConfigurationError(
                f"unknown probe algorithm {algorithm!r}; choose from "
                f"{tuple(probed)}"
            )
    emit = log or (lambda message: None)
    report = ProbeReport(
        seed=seed, n=n, trials=trials, inner=inner, noise=noise, delay=delay,
    )
    rungs = _ladder_specs(inner, noise, delay)
    assert tuple(rung for rung, _, _ in rungs) == ADVERSARY_LADDER
    for algorithm in algorithms:
        factory = catalog.get(algorithm).factory
        rows: List[Dict[str, Any]] = []
        for rung, label, spec in rungs:
            emit(f"probe: {algorithm} / {rung} ({label})...")
            stats = run_conciliator_trials(
                lambda: factory(n),
                list(range(n)),
                schedule_family="random",
                trials=trials,
                master_seed=seed,
                adversary=spec,
                workers=workers,
                chunk_size=chunk_size,
            )
            low, high = stats.agreement_interval
            rows.append({
                "rung": rung,
                "adversary": label,
                "agreement_rate": stats.agreement_rate,
                "agreement_interval": [low, high],
                "validity_failures": stats.validity_failures,
                "mean_total_steps": stats.total_steps.mean,
            })
        report.ladder[algorithm] = rows
    for algorithm in probed:
        factory = catalog.get(algorithm).factory
        for kind in REGISTER_MODEL_KINDS:
            emit(f"probe: {algorithm} / {kind} registers...")
            model = None if kind == "atomic" else RegisterModel(kind)
            stats = run_conciliator_trials(
                lambda: factory(n),
                list(range(n)),
                schedule_family="random",
                trials=trials,
                master_seed=seed,
                register_model=model,
                workers=workers,
                chunk_size=chunk_size,
            )
            report.register_models.append({
                "algorithm": algorithm,
                "model": kind,
                "agreement_rate": stats.agreement_rate,
                "validity_failures": stats.validity_failures,
                "mean_total_steps": stats.total_steps.mean,
            })
    return report
