"""Built-in English stopword list, overridable from a file (one word per line)."""

from .checkpoint import read_lines

ENGLISH_STOPWORDS: frozenset[str] = frozenset("""
a about above across after afterwards again against all almost alone along
already also although always am among amongst an and another any anybody
anyhow anyone anything anyway anywhere are around as at back be became
because become becomes becoming been before beforehand behind being below
beside besides between beyond both bottom but by call can cannot cant could
couldnt did do does doing done down due during each eg eight either eleven
else elsewhere enough etc even ever every everybody everyone everything
everywhere except few fifteen fifty first five for former formerly forty
four from front full further get give go had has hasnt have he hence her
here hereafter hereby herein hereupon hers herself him himself his how
however hundred i ie if in inc indeed instead into is it its itself just
keep last latter latterly least less let like likely made many may maybe me
meanwhile might mine more moreover most mostly much must my myself name
namely neither never nevertheless next nine no nobody none noone nor not
nothing now nowhere of off often on once one only onto or other others
otherwise our ours ourselves out over own part per perhaps please put
rather re really said same say see seem seemed seeming seems serious
several she should show side since six sixty so some somehow someone
something sometime sometimes somewhere still such take ten than that the
their theirs them themselves then thence there thereafter thereby therefore
therein thereupon these they third this those though three through
throughout thru thus to together too top toward towards twelve twenty two
un under until up upon us use used using various very via was we well were
what whatever when whence whenever where whereafter whereas whereby wherein
whereupon wherever whether which while whither who whoever whole whom whose
why will with within without would yet you your yours yourself yourselves
""".split())


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword list, one word per line; blank lines are skipped."""
    return frozenset(line.strip().lower() for _, line in read_lines(path))
