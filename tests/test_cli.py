import argparse

import pytest

from janaka import cli
from janaka.errors import JanakaError


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
        assert cli._setting(flag, config, "time-limit", 60.0, float) == 3.0
        assert cli._setting(unset, config, "time-limit", 60.0, float) == 7.5
        assert cli._setting(unset, {}, "time-limit", 60.0, float) == 60.0
        assert cli._setting(argparse.Namespace(), {}, "time-limit", 60.0, float) == 60.0

    def test_cast_applies_to_ini_strings_only(self):
        def cast(text):
            return ("cast", text)

        config = {"kappa": "2"}
        assert cli._setting(argparse.Namespace(kappa=None), config, "kappa", 1, cast) == ("cast", "2")
        # a flag value, even a string, is taken as argparse typed it
        assert cli._setting(argparse.Namespace(kappa="3"), config, "kappa", 1, cast) == "3"
        assert cli._setting(argparse.Namespace(kappa=None), {}, "kappa", 1, cast) == 1
        # a default is taken as the caller typed it, even a string
        assert cli._setting(argparse.Namespace(kappa=None), {}, "kappa", "1", cast) == "1"


class Captured(Exception):
    """Stops a command once the patched call has seen its arguments."""


def capture(monkeypatch, name):
    """Patch cli.<name> to record its arguments and stop the command."""
    seen = {}

    def fake(*args, **kwargs):
        seen.update(args=args, kwargs=kwargs)
        raise Captured

    monkeypatch.setattr(cli, name, fake)
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
            seen = capture(monkeypatch, "parse_traces")
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
