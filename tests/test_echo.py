"""Tests for the Echo façade, workspaces and the command line."""

import json

import pytest

from repro.echo import Echo, Workspace
from repro.echo.cli import main
from repro.errors import QvtStaticError, WorkspaceError
from repro.featuremodels import (
    configuration,
    configuration_metamodel,
    feature_metamodel,
    feature_model,
    paper_transformation,
)


def build_echo():
    echo = Echo()
    echo.add_metamodel(feature_metamodel())
    echo.add_metamodel(configuration_metamodel())
    echo.add_transformation(paper_transformation(2))
    echo.add_model("fm", feature_model({"core": True, "log": True}))
    echo.add_model("alpha", configuration(["core", "log"]))
    echo.add_model("beta", configuration(["core"]))
    return echo


BINDING = {"fm": "fm", "cf1": "alpha", "cf2": "beta"}


class TestEchoFacade:
    def test_check_reports_violation(self):
        echo = build_echo()
        report = echo.check("F", BINDING)
        assert not report.consistent

    def test_enforce_applies_repairs(self):
        echo = build_echo()
        repair = echo.enforce("F", BINDING, targets=["cf1", "cf2"])
        assert repair.distance > 0
        assert echo.check("F", BINDING).consistent  # store was updated

    def test_enforce_without_apply(self):
        echo = build_echo()
        echo.enforce("F", BINDING, targets=["cf1", "cf2"], apply=False)
        assert not echo.check("F", BINDING).consistent

    def test_missing_binding_entry(self):
        echo = build_echo()
        with pytest.raises(WorkspaceError, match="misses"):
            echo.check("F", {"fm": "fm"})

    def test_unknown_model_name(self):
        echo = build_echo()
        with pytest.raises(WorkspaceError, match="no model"):
            echo.check("F", {"fm": "ghost", "cf1": "alpha", "cf2": "beta"})

    def test_unknown_transformation(self):
        echo = build_echo()
        with pytest.raises(WorkspaceError, match="no transformation"):
            echo.check("Ghost", BINDING)

    def test_transformation_from_source_text(self):
        echo = Echo()
        echo.add_metamodel(feature_metamodel())
        echo.add_transformation(
            """
            transformation T (a : FM, b : FM) {
              top relation Same {
                n : String;
                domain a x : Feature { name = n }
                domain b y : Feature { name = n }
              }
            }
            """
        )
        echo.add_model("m1", feature_model({"a": True}))
        echo.add_model("m2", feature_model({"a": False}))
        report = echo.check("T", {"a": "m1", "b": "m2"})
        assert report.consistent  # names match; mandatory is unconstrained

    def test_static_errors_surface_at_registration(self):
        echo = Echo()
        echo.add_metamodel(feature_metamodel())
        with pytest.raises(QvtStaticError):
            echo.add_transformation(
                """
                transformation T (a : FM) {
                  top relation R {
                    domain a x : Ghost { }
                    depends { -> a }
                  }
                }
                """
            )

    def test_add_model_registers_metamodel(self):
        echo = Echo()
        echo.add_model("fm", feature_model({"a": True}))
        assert echo.model("fm").metamodel.name == "FM"


@pytest.fixture()
def workspace_dir(tmp_path):
    workspace = Workspace()
    workspace.metamodels["FM"] = feature_metamodel()
    workspace.metamodels["CF"] = configuration_metamodel()
    workspace.transformations["F"] = paper_transformation(2)
    workspace.models["fm"] = feature_model({"core": True, "log": True})
    workspace.models["alpha"] = configuration(["core", "log"], name="alpha")
    workspace.models["beta"] = configuration(["core"], name="beta")
    workspace.save(tmp_path)
    return tmp_path


class TestWorkspace:
    def test_save_load_roundtrip(self, workspace_dir):
        loaded = Workspace.load(workspace_dir)
        assert set(loaded.metamodels) == {"FM", "CF"}
        assert set(loaded.models) == {"fm", "alpha", "beta"}
        assert loaded.transformations["F"] == paper_transformation(2)

    def test_missing_root(self, tmp_path):
        with pytest.raises(WorkspaceError, match="not a directory"):
            Workspace.load(tmp_path / "nope")

    def test_invalid_json_reported(self, workspace_dir):
        (workspace_dir / "models" / "bad.json").write_text("{broken")
        with pytest.raises(WorkspaceError, match="invalid JSON"):
            Workspace.load(workspace_dir)

    def test_unknown_kind_reported(self, workspace_dir):
        (workspace_dir / "models" / "odd.json").write_text(
            json.dumps({"kind": "mystery"})
        )
        with pytest.raises(WorkspaceError, match="unknown artefact"):
            Workspace.load(workspace_dir)

    def test_model_with_unknown_metamodel(self, workspace_dir):
        (workspace_dir / "models" / "odd.json").write_text(
            json.dumps({"kind": "model", "metamodel": "Ghost", "objects": []})
        )
        with pytest.raises(WorkspaceError, match="unknown metamodel"):
            Workspace.load(workspace_dir)

    def test_save_model_writes_file(self, workspace_dir):
        workspace = Workspace.load(workspace_dir)
        path = workspace.save_model(workspace_dir, "alpha")
        assert path.exists()
        with pytest.raises(WorkspaceError):
            workspace.save_model(workspace_dir, "ghost")

    def test_model_name_defaults_to_stem(self, workspace_dir):
        data = json.loads((workspace_dir / "models" / "alpha.json").read_text())
        data.pop("name")
        (workspace_dir / "models" / "gamma.json").write_text(json.dumps(data))
        loaded = Workspace.load(workspace_dir)
        assert "gamma" in loaded.models


class TestCli:
    def test_validate_ok(self, workspace_dir, capsys):
        assert main(["validate", "--workspace", str(workspace_dir)]) == 0
        assert "F: ok" in capsys.readouterr().out

    def test_check_inconsistent_exit_code(self, workspace_dir, capsys):
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
            ]
        )
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_standard_semantics_flag(self, workspace_dir, capsys):
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--semantics", "standard",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
            ]
        )
        out = capsys.readouterr().out
        assert "standard semantics" in out

    def test_enforce_write_roundtrip(self, workspace_dir, capsys):
        rc = main(
            [
                "enforce",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
                "--target", "cf1", "--target", "cf2",
                "--write",
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
            ]
        )
        assert rc == 0

    def test_enforce_with_weights(self, workspace_dir):
        rc = main(
            [
                "enforce",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
                "--target", "cf2",
                "--weight", "cf2=3",
            ]
        )
        assert rc == 0

    def test_error_exit_code(self, workspace_dir, capsys):
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "Ghost",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_bind_entry(self, workspace_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "check",
                    "--workspace", str(workspace_dir),
                    "-t", "F",
                    "--bind", "fm",
                ]
            )

    def test_explain_describes_transformation(self, workspace_dir, capsys):
        rc = main(
            ["explain", "--workspace", str(workspace_dir), "-t", "F"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "top relation MF" in out
        assert "depends: cf1 cf2 -> fm; fm -> cf1; fm -> cf2" in out
        assert "[declared]" in out

    def test_explain_unknown_transformation(self, workspace_dir, capsys):
        rc = main(
            ["explain", "--workspace", str(workspace_dir), "-t", "Ghost"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["repair-all-the-things", "--workspace", "ws"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_workspace_dir(self, tmp_path, capsys):
        rc = main(
            [
                "check",
                "--workspace", str(tmp_path / "nope"),
                "-t", "F",
                "--bind", "fm=fm",
            ]
        )
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_malformed_model_file(self, workspace_dir, capsys):
        (workspace_dir / "models" / "alpha.json").write_text("{broken")
        rc = main(["validate", "--workspace", str(workspace_dir)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_model_file_with_unknown_metamodel(self, workspace_dir, capsys):
        (workspace_dir / "models" / "odd.json").write_text(
            json.dumps({"kind": "model", "metamodel": "Ghost", "objects": []})
        )
        rc = main(["validate", "--workspace", str(workspace_dir)])
        assert rc == 2
        assert "unknown metamodel" in capsys.readouterr().err

    def test_bind_to_missing_model(self, workspace_dir, capsys):
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=ghost", "cf2=beta",
            ]
        )
        assert rc == 2
        assert "no model" in capsys.readouterr().err

    def test_bind_out_of_universe_model(self, workspace_dir, capsys):
        """Binding a model of the wrong metamodel is rejected cleanly."""
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=fm", "cf2=beta",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err and "metamodel" in err

    def test_enforce_unknown_target(self, workspace_dir, capsys):
        rc = main(
            [
                "enforce",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
                "--target", "ghost",
            ]
        )
        assert rc == 2
        assert "unknown parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["cf2", "cf2=", "=3", "cf2=three"])
    def test_bad_weight_entry(self, workspace_dir, bad):
        with pytest.raises(SystemExit, match="bad --weight entry"):
            main(
                [
                    "enforce",
                    "--workspace", str(workspace_dir),
                    "-t", "F",
                    "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
                    "--target", "cf2",
                    "--weight", bad,
                ]
            )

    @pytest.mark.parametrize("bad", ["-1", "far"])
    def test_bad_max_distance_refused_at_parse(self, workspace_dir, capsys, bad):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "enforce",
                    "--workspace", str(workspace_dir),
                    "-t", "F",
                    "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
                    "--target", "cf2",
                    "--max-distance", bad,
                ]
            )
        assert exit_info.value.code == 2
        assert "--max-distance: expected an integer >= 0" in (
            capsys.readouterr().err
        )

    def test_validate_reports_failures(self, workspace_dir, capsys):
        bad = """
        transformation Bad (a : FM) {
          top relation R {
            domain a x : Ghost { }
            depends { -> a }
          }
        }
        """
        (workspace_dir / "transformations" / "Bad.qvtr").write_text(bad)
        rc = main(["validate", "--workspace", str(workspace_dir)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out


@pytest.fixture()
def batch_file(tmp_path_factory):
    """A batch-file writer rooted OUTSIDE the workspace directory (the
    workspace loader scans every *.json under its root)."""
    root = tmp_path_factory.mktemp("batch")

    def write(entries):
        path = root / "batch.json"
        path.write_text(
            entries if isinstance(entries, str) else json.dumps(entries)
        )
        return path

    return write


class TestCliBatch:
    ENTRY = {
        "transformation": "F",
        "bind": {"fm": "fm", "cf1": "alpha", "cf2": "beta"},
        "targets": ["cf1", "cf2"],
    }

    def test_batch_happy_path(self, workspace_dir, batch_file, capsys):
        path = batch_file([self.ENTRY, dict(self.ENTRY, targets=["fm"])])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
                "--workers", "0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[0] F: repaired" in out
        assert "[1] F: repaired" in out
        assert "2 requests in 2 shards" in out

    def test_batch_write_persists_repairs(self, workspace_dir, batch_file, capsys):
        path = batch_file([self.ENTRY])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
                "--workers", "0",
                "--write",
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        # the persisted repair makes the binding consistent on reload
        rc = main(
            [
                "check",
                "--workspace", str(workspace_dir),
                "-t", "F",
                "--bind", "fm=fm", "cf1=alpha", "cf2=beta",
            ]
        )
        assert rc == 0

    def test_batch_pooled_matches_inline_verdicts(
        self, workspace_dir, batch_file, capsys
    ):
        path = batch_file([self.ENTRY, dict(self.ENTRY, targets=["fm"])])
        outputs = []
        for workers in ("0", "2"):
            rc = main(
                [
                    "batch",
                    "--workspace", str(workspace_dir),
                    "--requests", str(path),
                    "--workers", workers,
                ]
            )
            assert rc == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append([l for l in lines if l.startswith("[")])
        assert outputs[0] == outputs[1]

    def test_batch_empty_file(self, workspace_dir, batch_file, capsys):
        path = batch_file([])
        rc = main(
            ["batch", "--workspace", str(workspace_dir), "--requests", str(path)]
        )
        assert rc == 2
        assert "no requests" in capsys.readouterr().err

    def test_batch_malformed_json(self, workspace_dir, batch_file, capsys):
        path = batch_file("{not json")
        rc = main(
            ["batch", "--workspace", str(workspace_dir), "--requests", str(path)]
        )
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_batch_non_utf8_file(self, workspace_dir, batch_file, capsys):
        path = batch_file([self.ENTRY])
        path.write_bytes(b"\xff\xfe\x00broken")
        rc = main(
            ["batch", "--workspace", str(workspace_dir), "--requests", str(path)]
        )
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_batch_not_an_array(self, workspace_dir, batch_file, capsys):
        path = batch_file("{}")
        rc = main(
            ["batch", "--workspace", str(workspace_dir), "--requests", str(path)]
        )
        assert rc == 2
        assert "JSON array" in capsys.readouterr().err

    def test_batch_missing_file(self, workspace_dir, tmp_path, capsys):
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(tmp_path / "ghost.json"),
            ]
        )
        assert rc == 2
        assert "cannot read batch file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"bind": {}, "targets": ["cf1"]}, "'transformation' must be"),
            ({"transformation": "Ghost", "bind": {}, "targets": ["cf1"]},
             "no transformation"),
            (dict(ENTRY, bind="nope"), "'bind' must map"),
            (dict(ENTRY, bind={"fm": "fm"}), "misses parameters"),
            (dict(ENTRY, bind={"fm": "fm", "cf1": "ghost", "cf2": "beta"}),
             "no model"),
            (dict(ENTRY, targets=[]), "'targets' must be"),
            (dict(ENTRY, max_distance="far"), "'max_distance'"),
            (dict(ENTRY, weights=[1]), "'weights'"),
            (dict(ENTRY, targets=["ghost"]), "unknown parameters"),
            ({"transformation": ["F"], "bind": {}, "targets": ["cf1"]},
             "'transformation' must be"),
            (dict(ENTRY, bind={"fm": ["fm"], "cf1": "alpha", "cf2": "beta"}),
             "'bind' must map"),
            (dict(ENTRY, targets=[1]), "'targets' must be"),
            (dict(ENTRY, weights={"cf1": "three"}), "'weights' must map"),
            (dict(ENTRY, weights={"cf1": True}), "'weights' must map"),
            (dict(ENTRY, max_distance=-1), "'max_distance'"),
            (dict(ENTRY, max_distance=True), "'max_distance'"),
            (dict(ENTRY, weights={"cf1": -1}), "'weights' must map"),
            (dict(ENTRY, mode="sideways"), "'mode' must be"),
        ],
    )
    def test_batch_malformed_entry(
        self, workspace_dir, batch_file, capsys, broken, message
    ):
        path = batch_file([self.ENTRY, broken])
        rc = main(
            ["batch", "--workspace", str(workspace_dir), "--requests", str(path)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "batch entry 1" in err and message in err

    def test_batch_no_repair_exit_code(self, workspace_dir, batch_file, capsys):
        impossible = dict(
            self.ENTRY, targets=["cf1"], max_distance=0
        )
        path = batch_file([self.ENTRY, impossible])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
                "--workers", "0",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[1] F: no-repair" in out

    def test_batch_write_clobber_warns(self, workspace_dir, batch_file, capsys):
        """Two requests repairing the same workspace model: last write
        wins, and the CLI says so (repairs are computed against the
        workspace snapshot, not each other's output)."""
        entry = dict(self.ENTRY, targets=["cf2"])
        path = batch_file([entry, dict(entry, weights={"cf2": 2})])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
                "--workers", "0",
                "--write",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.count("wrote") == 2
        assert "already written by request 0" in captured.err

    def test_batch_help_documents_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        out = capsys.readouterr().out
        assert "repro-echo batch --workspace ws --requests batch.json" in out
        assert '"transformation": "F"' in out
        assert "sharded by question shape" in out

    def test_batch_interrupted_partial_results(
        self, workspace_dir, batch_file, capsys, monkeypatch
    ):
        """An interrupted batch prints what it has, flags the rest, and
        exits 1 instead of spraying a traceback."""
        from repro.serve import BatchResult
        from repro.serve.requests import ERROR, EnforceResponse

        partial = BatchResult(
            responses=(
                EnforceResponse(
                    outcome=ERROR,
                    error="shard abc: batch interrupted before an answer arrived",
                ),
            ),
            interrupted=True,
        )
        monkeypatch.setattr(Workspace, "serve", lambda self, *a, **kw: partial)
        path = batch_file([self.ENTRY])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "interrupted" in captured.out  # the per-request error line
        assert "partial" in captured.err

    def test_batch_keyboard_interrupt_exits_cleanly(
        self, workspace_dir, batch_file, capsys, monkeypatch
    ):
        """A Ctrl-C that escapes the service layer still exits 1."""
        def boom(self, *a, **kw):
            raise KeyboardInterrupt

        monkeypatch.setattr(Workspace, "serve", boom)
        path = batch_file([self.ENTRY])
        rc = main(
            [
                "batch",
                "--workspace", str(workspace_dir),
                "--requests", str(path),
            ]
        )
        assert rc == 1
        assert "interrupted" in capsys.readouterr().err

    def test_batch_help_documents_interrupts(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        out = capsys.readouterr().out
        assert "deadline" in out
        assert "Ctrl-C" in out


class TestCliDaemon:
    ENTRY = TestCliBatch.ENTRY

    @pytest.fixture()
    def daemon_handle(self, tmp_path_factory):
        from repro.serve.daemon import DaemonConfig, run_in_thread

        socket_path = str(tmp_path_factory.mktemp("sock") / "echo.sock")
        handle = run_in_thread(
            DaemonConfig(socket_path=socket_path, workers=1, deadline=60.0)
        )
        yield handle
        handle.drain()

    def test_serve_mode_rejects_client_flags(self):
        with pytest.raises(SystemExit, match="--client"):
            main(["daemon", "--socket", "/tmp/nowhere.sock", "--health"])

    def test_client_needs_an_endpoint(self):
        with pytest.raises(SystemExit, match="--socket or --host"):
            main(["daemon", "--client", "--health"])

    def test_client_health(self, daemon_handle, capsys):
        rc = main(
            [
                "daemon", "--client",
                "--socket", daemon_handle.daemon.config.socket_path,
                "--health",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_client_enforces_requests_file(
        self, daemon_handle, workspace_dir, batch_file, capsys
    ):
        path = batch_file([self.ENTRY, dict(self.ENTRY, targets=["fm"])])
        rc = main(
            [
                "daemon", "--client",
                "--socket", daemon_handle.daemon.config.socket_path,
                "--workspace", str(workspace_dir),
                "--requests", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[0] F: repaired" in out
        assert "[1] F: repaired" in out

    def test_client_delta_requests_file(
        self, daemon_handle, workspace_dir, batch_file, capsys
    ):
        path = batch_file([self.ENTRY, dict(self.ENTRY, targets=["fm"])])
        rc = main(
            [
                "daemon", "--client", "--delta",
                "--socket", daemon_handle.daemon.config.socket_path,
                "--workspace", str(workspace_dir),
                "--requests", str(path),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "[0] F: repaired" in captured.out
        assert "[1] F: repaired" in captured.out
        assert "delta wire:" in captured.err

    def test_delta_refuses_retry(self):
        with pytest.raises(SystemExit, match="--delta is incompatible"):
            main(
                [
                    "daemon", "--client", "--delta", "--retry", "2",
                    "--socket", "/tmp/nowhere.sock",
                    "--workspace", "ws", "--requests", "batch.json",
                ]
            )

    def test_delta_needs_requests(self):
        with pytest.raises(SystemExit, match="--delta"):
            main(
                [
                    "daemon", "--client", "--delta",
                    "--socket", "/tmp/nowhere.sock", "--health",
                ]
            )

    def test_daemon_help_documents_protocol(self, capsys):
        with pytest.raises(SystemExit):
            main(["daemon", "--help"])
        out = capsys.readouterr().out
        assert "JSON" in out
        assert "--client" in out
        assert "--retry" in out
        assert "--faults" in out

    def test_client_against_dead_socket_is_one_line_exit_2(
        self, tmp_path, capsys
    ):
        """No daemon listening: one 'error:' line on stderr, exit code 2,
        never a traceback."""
        rc = main(
            [
                "daemon", "--client",
                "--socket", str(tmp_path / "nobody.sock"),
                "--health",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_client_retry_flags_ride_the_retrying_client(
        self, daemon_handle, capsys
    ):
        rc = main(
            [
                "daemon", "--client",
                "--socket", daemon_handle.daemon.config.socket_path,
                "--retry", "3", "--backoff", "0.01",
                "--metrics",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "totals" in payload

    def test_serve_mode_rejects_bad_faults_spec(self, capsys):
        rc = main(
            [
                "daemon",
                "--socket", "/tmp/never-bound.sock",
                "--faults", "warp-core-breach",
            ]
        )
        assert rc == 2
        assert "unknown fault site" in capsys.readouterr().err
