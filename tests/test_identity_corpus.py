"""Pinned use-case identities: cache keys and job fingerprints.

``tests/data/identity_corpus.json`` holds literal values of every
content hash and canonical form a use case is known by:

* ``usecase_key`` over program x config x tech x l2 x seed x baseline x
  budget x refine, and the keys of whole ``SweepSpec`` grids;
* ``JobRequest.fingerprint()`` and ``params_dict()`` of sparse and fully
  spelled payloads of every job kind;
* the disk-cache key a point job probes;
* the ``ProtocolError`` message of each unknown-field and bad-value case.

Disk-cache records, coalescing and clients all depend
on these values, so they must stay byte-identical across refactors.
The corpus is regenerated only on a deliberate change to what a key is
made of: a change to result-producing code (which bumps
``CODE_VERSION``) or to the key definition itself (an axis leaving or
joining the canonical forms).  CHANGES.md records each regeneration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.errors import ProtocolError
from repro.experiments.cache import CODE_VERSION, usecase_key
from repro.experiments.sweep import SweepSpec
from repro.experiments.usecase import UseCase
from repro.service.executor import AnalysisExecutor
from repro.service.protocol import parse_job

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "identity_corpus.json").read_text()
)


def _options(baseline, budget, refine) -> OptimizerOptions:
    return OptimizerOptions(
        max_evaluations=budget,
        with_persistence=baseline == "persistence",
        refine=refine,
    )


def _mismatches(entries, compute, expected_field):
    bad = []
    for entry in entries:
        actual = compute(entry)
        if actual != entry[expected_field]:
            bad.append((entry, actual))
    return bad


def test_corpus_code_version_matches():
    assert CORPUS["code_version"] == CODE_VERSION


def test_usecase_keys():
    def compute(entry):
        row, seed, baseline, budget, refine = entry["input"]
        return usecase_key(UseCase(*row), seed,
                           _options(baseline, budget, refine))

    entries = CORPUS["usecase_keys"]
    assert len(entries) >= 256
    assert _mismatches(entries, compute, "key") == []


def test_sweep_spec_keys():
    def compute(entry):
        spec = dict(entry["spec"])
        spec = SweepSpec(**{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in spec.items()
        })
        options = spec.optimizer_options()
        return [usecase_key(u, spec.seed, options) for u in spec.usecases()]

    assert _mismatches(CORPUS["sweep_spec_keys"], compute, "keys") == []


def test_job_fingerprints_and_canonical_params():
    def compute(entry):
        request = parse_job(entry["payload"])
        return {
            "fingerprint": request.fingerprint(),
            # list params are tuples; compare their JSON form
            "params": json.loads(json.dumps(request.params_dict())),
            "echo": json.dumps(request.to_json()),
        }

    def expected(entry):
        return {k: entry[k] for k in ("fingerprint", "params", "echo")}

    bad = [(e["payload"], compute(e)) for e in CORPUS["jobs"]
           if compute(e) != expected(e)]
    assert bad == []


def test_point_jobs_probe_the_pinned_disk_key(tmp_path):
    executor = AnalysisExecutor(workers=1, cache_dir=tmp_path)
    probed = []

    class _Recorder:
        def get(self, key):
            probed.append(key)
            return None

    executor.disk = _Recorder()

    def compute(entry):
        del probed[:]
        executor.probe_cache(parse_job(entry["payload"]))
        return probed[0] if probed else None

    assert _mismatches(CORPUS["point_disk_keys"], compute, "key") == []


@pytest.mark.parametrize("section,parse", [("job_errors", parse_job)])
def test_protocol_error_messages(section, parse):
    def compute(entry):
        try:
            parse(entry["payload"])
        except ProtocolError as exc:
            return str(exc)
        return None

    entries = CORPUS[section]
    assert entries
    assert _mismatches(entries, compute, "message") == []
