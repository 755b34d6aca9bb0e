"""The UPnP codecs' local XML ``escape`` matches ``xml.sax.saxutils``."""

import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest

import repro
from repro.sdp.upnp import gena, soap
from repro.sdp.upnp.description import escape


@pytest.mark.parametrize(
    "text",
    [
        "",
        "plain",
        "a & b < c > d",
        "&lt; already escaped &amp;",
        "<tag attr=\"v\" other='w'>&</tag>",
        "\"'&<>\"'",
        "&&<<>>",
    ],
)
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


def test_codecs_share_the_one_escape():
    assert soap.escape is escape and gena.escape is escape


def test_importing_the_world_api_skips_urllib_request():
    """``xml.sax.saxutils`` would pull ``urllib.request`` (and ``http.client``,
    ``email``, ``ssl``) into every process's start-up."""
    code = "import sys, repro.world; print('urllib.request' in sys.modules)"
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
