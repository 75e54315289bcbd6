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
