import io
import pathlib

import pytest

from conftest import msrd_d6_code
from srkit.cli import main
from srkit.errors import ParseError
from srkit.field import field_create
from srkit.srcfile import parse_src, parse_src_text, write_src_text

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
ROOT = HERE.parent

F2 = field_create(2)


class TestSrcFormat:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURES.glob("*.src")))
    def test_round_trip_is_byte_exact(self, name):
        text = (FIXTURES / name).read_text()
        code = parse_src_text(text)
        assert write_src_text(code) == text

    def test_writer_parser_identity(self):
        C = msrd_d6_code(F2)
        assert parse_src_text(write_src_text(C)) == C

    def test_known_fixture_dimensions(self):
        assert parse_src(FIXTURES / "msrd_d6_8blocks.src").k == 3
        assert parse_src(FIXTURES / "spherepack_d3.src").k == 7
        assert parse_src(FIXTURES / "msrd_d4_gf3.src").k == 4

    def test_truncated_file(self):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        with pytest.raises(ParseError):
            parse_src_text("\n".join(text.splitlines()[:8]) + "\n")

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            parse_src_text("nope\n")

    def test_shape_mismatch_reports_line(self):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        broken = text.replace("profile 1x2x5,1x1x3", "profile 1x2x4,1x1x4")
        with pytest.raises(ParseError):
            parse_src_text(broken)


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in GOLDEN.glob("*.txt")))
    def test_command_output_matches(self, name, monkeypatch):
        monkeypatch.chdir(ROOT)
        from scripts_commands import COMMANDS
        argv = dict(COMMANDS)[name]
        rc, out = run_cli(argv)
        assert f"exit {rc}\n{out}" == (GOLDEN / name).read_text()


class TestExitCodes:
    def test_usage_error(self):
        assert main(["bounds", "--q", "2"]) == 2

    def test_negative_verdict(self):
        rc, out = run_cli(["check", str(FIXTURES / "spherepack_d3.src")])
        assert rc == 1 and out.startswith("not MSRD")

    def test_guard_exceeded(self, monkeypatch):
        monkeypatch.setenv("SRKIT_MAX_ENUM", "4")
        path = FIXTURES / "msrd_d6_8blocks.src"
        assert main(["check", str(path)]) == 3

    def test_env_guard_override(self, monkeypatch):
        monkeypatch.setenv("SRKIT_MAX_ENUM", str(1 << 26))
        path = FIXTURES / "msrd_d6_8blocks.src"
        assert main(["check", str(path)]) == 0


    @pytest.mark.parametrize("argv", [
        pytest.param(["bounds", "--q", "2^a", "--profile", "2x2", "--d", "1"],
                     id="q-exponent-not-int"),
        pytest.param(["bounds", "--q", "4^2", "--profile", "2x2", "--d", "1"],
                     id="q-base-not-prime"),
        pytest.param(["omega", "--q", "6", "--m", "3", "--shape", "3,3,2",
                      "--d", "7"], id="omega-q-not-prime-power"),
        pytest.param(["omega", "--q", "3", "--m", "3", "--shape", "3,3,2",
                      "--d", "0"], id="omega-d-zero"),
        pytest.param(["asymptotics", "--q", "6", "--m", "4", "--n", "2",
                      "--bounds", "singleton"],
                     id="asymptotics-q-not-prime-power"),
        pytest.param(["bounds", "--q", "2", "--profile", "2xa", "--d", "1"],
                     id="profile-token-not-int"),
        pytest.param(["check", "{tmp}/bad_profile.src"],
                     id="src-profile-token-not-int"),
        pytest.param(["check", "{tmp}/missing.src"], id="missing-file"),
        pytest.param(["sphere-volume", "--q", "2", "--profile", "2x2",
                      "--r", "-1"], id="negative-radius"),
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        (tmp_path / "bad_profile.src").write_text(
            text.replace("profile 1x2x5,1x1x3", "profile 1x2x5,1xax3"))
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_dual_walked_once(self, monkeypatch):
        import srkit.cli
        calls = []
        walk = srkit.cli.brute_distributions

        def counting(code, *args, **kwargs):
            calls.append(code.k)
            return walk(code, *args, **kwargs)

        monkeypatch.setattr(srkit.cli, "brute_distributions", counting)
        rc, out = run_cli(["distributions", str(FIXTURES / "dualpair_a.src"),
                           "--dual", "--check-macwilliams"])
        assert rc == 0 and "macwilliams: support ok, rank-list ok" in out
        assert len(calls) == 2


class TestDeterminism:
    def test_repeat_runs_identical(self):
        argv = ["bounds", "--q", "2", "--profile", "2x2,1x2x7,1x1x5",
                "--all-d", "--format", "csv"]
        assert run_cli(argv) == run_cli(argv)

    def test_json_schema_tag(self):
        import json
        rc, out = run_cli(["bounds", "--q", "2", "--profile", "2x2",
                           "--d", "1", "--format", "json"])
        doc = json.loads(out)
        assert rc == 0 and doc["schema"] == "srkit.v1"
        assert doc["entries"][0]["value"] == 16
