import argparse
import re
from pathlib import Path

import pytest

from janaka import cli, pipeline
from janaka.errors import JanakaError
from janaka.repair import SearchBudget


class TestExitCodes:
    @pytest.mark.parametrize("cls, code", list(cli.EXIT_CODES.items()),
                             ids=[cls.__name__ for cls in cli.EXIT_CODES])
    def test_every_table_entry(self, cls, code):
        # instances made without __init__: the constructors take different
        # arguments, and only the class decides the code
        assert cli.exit_code_for(cls.__new__(cls)) == code

    def test_bare_janaka_error(self):
        assert cli.exit_code_for(JanakaError("x")) == 18

    def test_os_error(self):
        assert cli.exit_code_for(OSError("x")) == 19
        assert cli.exit_code_for(FileNotFoundError("x")) == 19

    def test_any_other_exception(self):
        assert cli.exit_code_for(ValueError("x")) == 20
        assert cli.exit_code_for(KeyError("x")) == 20


class TestSetting:
    def test_flag_over_ini_over_default(self):
        config = {"time-limit": "7.5"}
        flag = argparse.Namespace(time_limit=3.0)
        unset = argparse.Namespace(time_limit=None)
        assert cli._setting(flag, config, "time-limit", float) == 3.0
        assert cli._setting(unset, config, "time-limit", float) == 7.5
        assert cli._setting(unset, {}, "time-limit", float) is None
        assert cli._setting(argparse.Namespace(), {}, "time-limit", float) is None
        # with neither, the field's default applies
        assert cli._given(unset, config, SearchBudget) == {"time_limit": 7.5}
        assert cli._given(unset, {}, SearchBudget) == {}
        assert cli._run_config(argparse.Namespace(config=None)).budget == SearchBudget()

    def test_cast_applies_to_ini_strings_only(self):
        def cast(text):
            return ("cast", text)

        config = {"kappa": "2"}
        assert cli._setting(argparse.Namespace(kappa=None), config, "kappa", cast) == ("cast", "2")
        # a flag value, even a string, is taken as argparse typed it
        assert cli._setting(argparse.Namespace(kappa="3"), config, "kappa", cast) == "3"
        assert cli._setting(argparse.Namespace(kappa=None), {}, "kappa", cast) is None


class Captured(Exception):
    """Stops a command once the patched call has seen its arguments."""


def capture(monkeypatch, name, module=cli):
    """Patch module.<name> to record its arguments and stop the command."""
    seen = {}

    def fake(*args, **kwargs):
        seen.update(args=args, kwargs=kwargs)
        raise Captured

    monkeypatch.setattr(module, name, fake)
    return seen


class TestIniSettings:
    """Each setting is the flag, else the INI file's, else the default."""

    @pytest.fixture
    def files(self, tmp_path):
        # the traces assign every atom the INI's props name, as `repair`
        # parses them with those props
        (tmp_path / "traces.txt").write_text("p,q,!r;p,!q,r#\n")
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ntemperature = 0.7\nprops = p,q,r\nkappa = 0.25\n")
        return tmp_path, ini

    def mine(self, monkeypatch, files, *flags):
        tmp, ini = files
        seen = capture(monkeypatch, "janaka_run")
        with pytest.raises(Captured):
            cli.main(["mine", "--traces", str(tmp / "traces.txt"), "--config", str(ini), *flags])
        return seen["args"][0]

    def repair(self, monkeypatch, files, *flags):
        tmp, ini = files
        seen = capture(monkeypatch, "repair")
        with pytest.raises(Captured):
            cli.main(["repair", "--traces", str(tmp / "traces.txt"), "--template", "G(?<1>)",
                      "--config", str(ini), *flags])
        return seen["kwargs"]["kappa"]

    def test_mine_temperature(self, monkeypatch, files):
        assert self.mine(monkeypatch, files).temperature == 0.7
        assert self.mine(monkeypatch, files, "--temperature", "0.1").temperature == 0.1

    def test_mine_props(self, monkeypatch, files):
        assert self.mine(monkeypatch, files).props == ["p", "q", "r"]
        assert self.mine(monkeypatch, files, "--props", "q,p").props == ["q", "p"]

    def test_repair_kappa(self, monkeypatch, files):
        assert self.repair(monkeypatch, files) == 0.25
        assert self.repair(monkeypatch, files, "--kappa", "0.75") == 0.75

    @pytest.mark.parametrize("command", [
        ["repair", "--template", "G(?<1>)"],
        ["eval", "--formula", "G(p)"],
        ["export-milp", "--template", "G(?<1>)"],
    ], ids=lambda c: c[0])
    def test_trace_commands_props(self, monkeypatch, tmp_path, command):
        # the traces use p then q, so an INI or flag order shows as q, p
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n")
        ini = tmp_path / "props.ini"
        ini.write_text("[run]\nprops = q,p\n")

        def props_reaching_parse_traces(*flags):
            # a traces file has one reader, pipeline.load_sample
            seen = capture(monkeypatch, "parse_traces", pipeline)
            with pytest.raises(Captured):
                cli.main([*command, "--traces", str(tmp_path / "traces.txt"), *flags])
            return list(seen["args"][1])

        assert props_reaching_parse_traces("--config", str(ini)) == ["q", "p"]
        assert props_reaching_parse_traces("--config", str(ini), "--props", "p,q") == ["p", "q"]
        assert props_reaching_parse_traces() == ["p", "q"]

    def test_defaults_without_a_config(self, monkeypatch, files):
        tmp, _ = files
        seen = capture(monkeypatch, "janaka_run")
        with pytest.raises(Captured):
            cli.main(["mine", "--traces", str(tmp / "traces.txt")])
        cfg = seen["args"][0]
        assert cfg.temperature is None and cfg.props is None
        seen = capture(monkeypatch, "repair")
        with pytest.raises(Captured):
            cli.main(["repair", "--traces", str(tmp / "traces.txt"), "--template", "G(?<1>)"])
        assert seen["kwargs"]["kappa"] == 0.5


CASE1 = Path(cli.__file__).parent / "suites" / "table1" / "case1"

# (command, the setting its error names, the flags that set it, the INI line
# that sets it where the command reads an INI file)
BAD_SETTINGS = [
    ("mine", "hole_prob", ["--hole-prob", "0"], "hole-prob = 0"),
    ("mine", "n_candidates", ["--n-candidates", "0"], "n-candidates = 0"),
    ("mine", "template_count", ["--template-count", "0"], "template-count = 0"),
    ("mine", "kappa", ["--kappa", "abc"], "kappa = abc"),
    ("mine", "max_retries", ["--max-retries", "-1"], "max-retries = -1"),
    ("mine", "strategy", ["--strategy", "bogus"], "strategy = bogus"),
    ("eval", "alpha", ["--alpha", "2"], "alpha = 2"),
    ("repair", "time_limit", ["--time-limit", "0"], "time-limit = 0"),
    ("gen-traces", "count", ["--count", "0"], None),
    ("gen-traces", "min_len", ["--min-len", "5", "--max-len", "3"], None),
]


def bad_setting_params():
    for command, name, flags, line in BAD_SETTINGS:
        yield pytest.param(command, name, flags, None, id=f"{command}-{name}-flag")
        if line:
            yield pytest.param(command, name, [], line, id=f"{command}-{name}-ini")


class TestBadSettings:
    """Every invalid setting exits 17 with one error line naming it, and
    `mine` asks no provider."""

    @pytest.mark.parametrize("command, name, flags, line", list(bad_setting_params()))
    def test_exits_17_naming_the_setting(self, monkeypatch, capsys, tmp_path,
                                         command, name, flags, line):
        traces = tmp_path / "traces.txt"
        traces.write_text("!p,!q,!r,s;p,q,!r,s;p,!q,!r,!s#\np,!q,!r,!s;!p,!q,r,s#\n")
        # kappa 3.0 is above every case1 candidate's fitness, so a valid mine
        # would go on to repair; a later section overrides an earlier one
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nkappa = 3.0\n" + (f"[probe]\n{line}\n" if line else ""))
        inputs = ["--traces", str(traces), "--config", str(ini)]
        argv = {
            "mine": ["mine", *inputs, "--explanation", str(CASE1 / "explanation.txt"),
                     "--fixtures", str(CASE1 / "responses")],
            "eval": ["eval", "--formula", "G(p)", *inputs],
            "repair": ["repair", "--template", "G(?<1>)", *inputs],
            "gen-traces": ["gen-traces", "--formula", "F(p)", "--props", "p"],
        }[command]
        made, make = [], pipeline.make_provider
        monkeypatch.setattr(pipeline, "make_provider",
                            lambda cfg: made.append(make(cfg)) or made[-1])
        try:
            code = cli.main([*argv, *flags])
        except SystemExit as exc:  # a usage error, raised by argparse
            code = exc.code
        err = capsys.readouterr().err
        assert code == 17
        [message] = [row for row in err.splitlines() if "error:" in row]
        assert re.search(name.replace("_", "[-_]"), message), message
        assert "Traceback" not in err
        assert sum(provider.calls for provider in made) == 0


def test_export_milp_refuses_an_unknown_atom(capsys, tmp_path):
    # exit 4 with an error line, as `janaka repair` on the same template
    traces = tmp_path / "traces.txt"
    traces.write_text("p,!q;!p,q#\n")
    for command in ("export-milp", "repair"):
        code = cli.main([command, "--traces", str(traces), "--template", "G((zz ? ?<1>))"])
        err = capsys.readouterr().err
        assert code == 4
        assert "error: unknown atom 'zz'" in err
        assert "Traceback" not in err


# the bundled table1 suite's rows, the runtime column aside
TABLE1_ROWS = """\
case               LLM formula                                SAT       FIT   repaired formula                               SAT       FIT
case1              G((p -> X((F(q) & (r -> X(G(s)))))))       no      1.750   F(G((p -> G((F(s) & (r -> X(G(s))))))))        yes     3.307
case2              G((q -> X(r)))                             no      1.062   G((q -> X(!q)))                                no      1.377
case3              G(((a | b) -> X((G(c) U (d & F(e))))))     no      1.217   F(G(((a | b) -> X((G(!a) U (d & F(e)))))))     yes     1.614
case4              G(((a | b) -> F((c & (X(d) U e)))))        no      1.869   G(((a & b) -> ((c & (X(!b) U e)) U b)))        yes     2.802
case5              (F(p) -> F((r | s)))                       yes     0.729   G((F(p) -> F((r | s))))                        yes     2.420
suite ok: False""".splitlines()


def test_bench_table1_rows(capsys):
    # exit 2: case2's repaired formula violates a trace (the suite's `sat` check)
    assert cli.main(["bench", "--suite", "table1"]) == 2
    out = capsys.readouterr().out
    assert [re.sub(r"\s+(time|\d+\.\ds)$", "", row) for row in out.splitlines()] == TABLE1_ROWS
