import json
import subprocess
import sys

import pytest

from orientramsey import dumps, loads, complete_graph, transitive_tournament
from orientramsey.cli import run_command
from orientramsey.experiments import default_p_grid


def _write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def k4_and_tt3(tmp_path):
    return (_write(tmp_path / "k4.txt", complete_graph(4)),
            _write(tmp_path / "tt3.txt", transitive_tournament(3)),
            tmp_path)


def test_arrow_true_exit_zero(k4_and_tt3):
    k4, tt3, tmp = k4_and_tt3
    code, out = run_command(["--out-dir", str(tmp), "arrow", k4, tt3])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] is True
    assert payload["certificate"] is None


def test_arrow_false_writes_certificate(k4_and_tt3):
    _, tt3, tmp = k4_and_tt3
    k3 = _write(tmp / "k3.txt", complete_graph(3))
    code, out = run_command(["--out-dir", str(tmp), "arrow", k3, tt3])
    assert code == 1
    payload = json.loads(out)
    cert_path = tmp / payload["certificate"]
    cert = loads(cert_path.read_text())
    assert cert.underlying() == complete_graph(3)
    # round-trip: the certificate file passes the verification mode
    code2, out2 = run_command(["--out-dir", str(tmp), "arrow", k3, tt3,
                               "--check-certificate", str(cert_path)])
    assert code2 == 0
    assert json.loads(out2)["certificate_valid"] is True
    # a bogus certificate is rejected with exit 1
    bogus = _write(tmp / "bogus.txt", transitive_tournament(3))
    code3, _ = run_command(["--out-dir", str(tmp), "arrow", k3, tt3,
                            "--check-certificate", bogus])
    assert code3 == 1


def test_density_cli(k4_and_tt3):
    k4, _, tmp = k4_and_tt3
    code, out = run_command(["--out-dir", str(tmp), "density", k4, "--m"])
    assert code == 0
    assert json.loads(out)["value"] == "3/2"
    _, out = run_command(["--out-dir", str(tmp), "density", k4])
    assert json.loads(out)["value"] == "5/2"


def test_ramsey_cli(k4_and_tt3):
    _, tt3, tmp = k4_and_tt3
    code, out = run_command(["--out-dir", str(tmp), "ramsey", tt3, "--nmax", "6"])
    assert code == 0 and json.loads(out)["ramsey"] == 4
    code, out = run_command(["--out-dir", str(tmp), "ramsey", tt3, "--nmax", "3"])
    assert code == 0 and json.loads(out)["ramsey"] == "exceeds n_max"


def test_construct_and_orient_round_trip(tmp_path):
    code, _ = run_command(["--out-dir", str(tmp_path), "construct", "family",
                           "cycle", "5", "--out", "c5.txt"])
    assert code == 0
    code, out = run_command(["--out-dir", str(tmp_path), "orient", "ghrv",
                             str(tmp_path / "c5.txt"), "--out", "c5o.txt"])
    assert code == 0
    assert json.loads(out)["chi"] == 3
    oriented = loads((tmp_path / "c5o.txt").read_text())
    assert oriented.is_acyclic()

    code, _ = run_command(["--out-dir", str(tmp_path), "construct", "family",
                           "transitive_tournament", "3", "--root", "1",
                           "--out", "tt3r.txt"])
    assert code == 0
    assert loads((tmp_path / "tt3r.txt").read_text()).root == 1

    code, out = run_command(["--out-dir", str(tmp_path), "construct", "product",
                             str(tmp_path / "tt3r.txt"), str(tmp_path / "tt3r.txt"),
                             "--out", "prod.txt"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 9 and payload["size"] == 12


def test_orient_starfree_cli(tmp_path):
    run_command(["--out-dir", str(tmp_path), "construct", "family", "cycle", "4",
                 "--out", "c4.txt"])
    code, out = run_command(["--out-dir", str(tmp_path), "orient", "starfree",
                             str(tmp_path / "c4.txt"), "--in-arcs", "1",
                             "--out-arcs", "1", "--out", "c4sf.txt"])
    assert code == 0 and json.loads(out)["exists"] is True
    run_command(["--out-dir", str(tmp_path), "construct", "family", "cycle", "5",
                 "--out", "c5.txt"])
    code, out = run_command(["--out-dir", str(tmp_path), "orient", "starfree",
                             str(tmp_path / "c5.txt"), "--in-arcs", "1",
                             "--out-arcs", "1", "--out", "c5sf.txt"])
    assert code == 1 and json.loads(out)["exists"] is False


def test_containers_profile_cli(k4_and_tt3):
    _, tt3, tmp = k4_and_tt3
    code, out = run_command(["--out-dir", str(tmp), "containers", "profile",
                             tt3, "--n", "100", "--tau-d", "2", "--csv", "prof.csv"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_holds"] is True
    assert payload["codegree_bound"] == "12"
    lines = (tmp / "prof.csv").read_text().splitlines()
    assert lines[0] == "j,d_j,delta_j"
    assert len(lines) == 4
    assert "." not in "".join(lines[1:])        # exact strings, no floats


def test_exit_code_usage(k4_and_tt3):
    with pytest.raises(SystemExit) as err:
        run_command(["no-such-command"])
    assert err.value.code == 2
    k4, tt3, tmp = k4_and_tt3
    with pytest.raises(SystemExit) as err:
        run_command(["--out-dir", str(tmp), "arrow", k4, tt3, "--budget-seconds", "-1"])
    assert err.value.code == 2
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            run_command(["--out-dir", str(tmp), "sweep", tt3, "--n-list", "10",
                         "--trials", "2", "--jobs", jobs])
        assert err.value.code == 2
    for n_list in ("0", "-3", "8,8", "12,12,16", ","):
        with pytest.raises(SystemExit) as err:
            run_command(["--out-dir", str(tmp), "sweep", tt3, "--n-list", n_list,
                         "--trials", "2"])
        assert err.value.code == 2


def test_exit_code_budget(k4_and_tt3):
    k4, tt3, tmp = k4_and_tt3
    code, out = run_command(["--out-dir", str(tmp), "--budget-nodes", "0",
                             "arrow", k4, tt3])
    assert code == 3
    assert "error" in json.loads(out)


def test_exit_code_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("g 3\na 0 1\n")
    code, out = run_command(["--out-dir", str(tmp_path), "density", str(bad)])
    assert code == 4
    # oriented file where a graph is needed
    tt3 = tmp_path / "tt3.txt"
    tt3.write_text(dumps(transitive_tournament(3)))
    code, _ = run_command(["--out-dir", str(tmp_path), "density", str(tt3)])
    assert code == 4
    code, _ = run_command(["--out-dir", str(tmp_path), "density",
                           str(tmp_path / "missing.txt")])
    assert code == 4
    # manifests without a replayable argv
    for manifest in ({"argv": 5}, {}, {"argv": ["density", 3]}):
        path = tmp_path / "manifest_bad.json"
        path.write_text(json.dumps(manifest))
        code, out = run_command(["rerun", str(path), "--out-dir", str(tmp_path / "re")])
        assert code == 4
        assert "error" in json.loads(out)
    # empty tree probes fail before any trial runs, as empty sweeps do; a
    # 1,000-vertex directed path fails the solver's 10-vertex pattern cap
    paths = [_write(tmp_path / f"p{t}.txt", __import__("orientramsey").directed_path(t))
             for t in (4, 1000)]
    for path, n, trials in ((paths[0], "0", "3"), (paths[0], "10", "0"),
                            (paths[1], "10", "1")):
        code, out = run_command(["--out-dir", str(tmp_path), "trees", "probe", path,
                                 "--b-grid", "1", "--n", n, "--trials", trials])
        assert code == 4
        assert "error" in json.loads(out)
    assert not (tmp_path / "probe.csv").exists()


def test_sweep_and_manifest_rerun(tmp_path):
    tt3 = _write(tmp_path / "tt3.txt", transitive_tournament(3))
    run1 = tmp_path / "run1"
    code, out1 = run_command(["--out-dir", str(run1), "--seed", "5", "sweep",
                              tt3, "--n-list", "10,14", "--trials", "15"])
    assert code == 0
    # two sizes, 10 grid points each, 15 trials: bisection calls the solver
    # at most 4 times per trial and size
    assert 0 < json.loads(out1)["solver_calls"] <= 2 * 15 * 4
    manifest = json.loads((run1 / "manifest.json").read_text())
    assert manifest["outputs"].keys() == {"sweep.csv"}
    assert manifest["seed"] == 5

    run2 = tmp_path / "run2"
    code, out = run_command(["rerun", str(run1 / "manifest.json"),
                             "--out-dir", str(run2)])
    assert code == 0
    assert json.loads(out)["reproduced"] is True
    assert (run1 / "sweep.csv").read_bytes() == (run2 / "sweep.csv").read_bytes()


def test_sweep_p_points_sets_grid_size(tmp_path):
    tt3 = _write(tmp_path / "tt3.txt", transitive_tournament(3))
    code, _ = run_command(["--out-dir", str(tmp_path), "sweep", tt3, "--n-list", "10",
                           "--trials", "2", "--p-points", "3"])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == len(default_p_grid(transitive_tournament(3), 10, 3)) == 4
    with pytest.raises(SystemExit) as err:
        run_command(["--out-dir", str(tmp_path), "sweep", tt3, "--n-list", "10",
                     "--trials", "2", "--p-points", "0"])
    assert err.value.code == 2


def test_trees_probe_cli(tmp_path):
    p3 = _write(tmp_path / "p3.txt", __import__("orientramsey").directed_path(3))
    code, out = run_command(["--out-dir", str(tmp_path), "trees", "probe", p3,
                             "--b-grid", "0.5,2.0", "--n", "16", "--trials", "10"])
    assert code == 0
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pattern,n,b,p,trials")
    replay = tmp_path / "replay"
    code, out = run_command(["rerun", str(tmp_path / "manifest.json"),
                             "--out-dir", str(replay)])
    assert code == 0 and json.loads(out)["reproduced"] is True
    assert (replay / "probe.csv").read_bytes() == (tmp_path / "probe.csv").read_bytes()


def test_console_entry_point(tmp_path):
    tt3 = _write(tmp_path / "tt3.txt", transitive_tournament(3))
    k4 = _write(tmp_path / "k4.txt", complete_graph(4))
    proc = subprocess.run(
        [sys.executable, "-m", "orientramsey", "--out-dir", str(tmp_path),
         "arrow", str(k4), str(tt3)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True
