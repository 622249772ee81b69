"""Checks that the metrics the workloads print match BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark binary, runs one traced repetition of every workload
(about half a minute in all), and checks the names, units and ratio bases
against the spec. The statistics themselves are unit-tested in the Rust
crate: `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workloads, cls.e2e, cls.layer = run.load_spec()
        binary = run.build()
        assert binary is not None, "the benchmark must build"
        cls.reps = {}
        for w in cls.workloads:
            setup_s, result, code = run.run_rep(binary, w, 1, True)
            assert code == 0 and result is not None, f"{w} exited {code}"
            cls.reps[w] = (setup_s, result)

    def test_every_workload_measures_every_end_to_end_metric(self):
        for w, (setup_s, result) in self.reps.items():
            self.assertGreater(setup_s, 0.0, w)
            for name in self.e2e:
                if name != "setup_s":
                    self.assertIn(name, result["metrics"], f"{w} lacks {name}")
                    self.assertGreater(result["metrics"][name][0], 0.0, f"{w}: {name}")

    def test_every_per_layer_metric_is_measured_by_some_workload(self):
        measured = set()
        for _, result in self.reps.values():
            measured |= set(result["metrics"])
        for name in self.layer:
            if name != "trace.overhead_pct":
                self.assertIn(name, measured)

    def test_units_match_the_spec(self):
        spec = {**self.e2e, **self.layer}
        for w, (_, result) in self.reps.items():
            for name, (_, unit) in result["metrics"].items():
                if name in spec:
                    self.assertEqual(unit, spec[name], f"{w}: {name}")

    def test_every_ratio_carries_its_base(self):
        for name, unit in self.layer.items():
            if unit == "ratio":
                self.assertEqual(self.layer.get(f"{name}.base"), "count", name)
        for w, (_, result) in self.reps.items():
            for name, (_, unit) in result["metrics"].items():
                if unit == "ratio" and name.endswith("_ratio") and "vs" not in name:
                    self.assertIn(f"{name}.base", result["metrics"], f"{w}: {name}")

    def test_names_and_units_are_well_formed(self):
        import re
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        all_names = list(self.workloads) + list(self.e2e) + list(self.layer)
        self.assertEqual(len(all_names), len(set(all_names)))
        for n in all_names:
            self.assertRegex(n, name)
        for u in list(self.e2e.values()) + list(self.layer.values()):
            self.assertRegex(u, unit)


if __name__ == "__main__":
    unittest.main()
